// Package kcore implements core decomposition on single layers and the
// paper's multi-layer dCC procedure (Appendix B): computing the d-coherent
// core C^d_L(G), the maximal vertex set whose induced subgraph has minimum
// degree ≥ d on every layer in L.
//
// Two interchangeable dCC implementations are provided: DCC, a queue-based
// peel in O(Σ_{i∈L} m_i) after O(n·|L|) initialization (PinnedDCC is its
// general form, seeded with part of the answer), and DCCBin, a
// faithful port of the bin-sorted procedure from the paper's Appendix B.
// They compute identical results (see the property tests); DCC is the
// default used by the algorithms.
package kcore

import (
	"repro/internal/bitset"
	"repro/internal/multilayer"
)

// Core returns the d-core of layer restricted to the alive vertices: the
// maximal S ⊆ alive such that every v ∈ S has at least d neighbors in S on
// the given layer. alive is not modified. Passing alive == nil means all
// vertices.
func Core(g *multilayer.Graph, layer int, alive *bitset.Set, d int) *bitset.Set {
	if alive == nil {
		alive = bitset.NewFull(g.N())
	}
	return DCC(g, alive, []int{layer}, d)
}

// DCC computes the d-coherent core of the multi-layer subgraph induced by
// S with respect to the given layers: the maximal subset of S in which
// every vertex has degree ≥ d on every listed layer. S is not modified.
// It is PinnedDCC with nothing pinned and no cancellation.
func DCC(g *multilayer.Graph, S *bitset.Set, layers []int, d int) *bitset.Set {
	out, _ := PinnedDCC(g, S, nil, layers, d, nil)
	return out
}

// stopStride is the number of peel steps between two polls of PinnedDCC's
// stop callback.
const stopStride = 4096

// PinnedDCC computes DCC(g, S, layers, d) for a caller that already knows
// part of the answer. pinned (nil means empty) must be a subset of that
// d-CC — for instance the d-CC of S on a superset of layers, which the
// d-CC on layers always contains. Pinned vertices get no degree counters
// and are never peeled; they only count as live neighbours of the others.
// The result equals the unpinned peel: no member of the d-CC is ever
// peeled, so the pinned set survives in any case, and the survivors are
// d-dense on every listed layer, so they lie inside the d-CC.
//
// stop (nil means never) is polled every stopStride peel steps. Once it
// reports true the peel is abandoned and PinnedDCC returns the empty set
// and false.
//
// The peel runs the standard cascade: compute per-layer degrees inside S,
// enqueue vertices violating the threshold on any layer, and propagate
// deletions. Each edge of each listed layer incident to an unpinned
// member is touched O(1) times; edges between pinned vertices are never
// scanned.
//
// The hot loops run on flat arrays only: a state byte per vertex
// (outside S / alive / dead / pinned) replaces bitset membership probes,
// the per-layer degree counters live in pooled scratch (see dccScratch),
// and a vertex that already failed one layer's threshold during
// initialization skips its remaining per-layer degree scans — its
// counters can never be read. The result is byte-identical to the
// reference DCCBin (see the property tests).
func PinnedDCC(g *multilayer.Graph, S, pinned *bitset.Set, layers []int, d int, stop func() bool) (*bitset.Set, bool) {
	if len(layers) == 0 || d <= 0 {
		return S.Clone(), true
	}
	sc := getDCCScratch(g.N(), len(layers))
	out, ok := sc.peel(g, S, pinned, layers, d, stop)
	putDCCScratch(sc)
	return out, ok
}

// Vertex states of the peel scratch. The initial degree counts include
// vertices that already died during initialization: the cascade
// decrements their neighbours' counters once it pops them.
const (
	stOutside = 0
	stAlive   = 1
	stDead    = 2
	stPinned  = 3
)

// peel is PinnedDCC on an explicit scratch, which it leaves in the
// all-zero state on every return path.
func (sc *dccScratch) peel(g *multilayer.Graph, S, pinned *bitset.Set, layers []int, d int, stop func() bool) (*bitset.Set, bool) {
	n := g.N()
	// Hot loop: iterate each listed layer's flat CSR arrays directly.
	offs := make([][]int64, len(layers))
	nbrs := make([][]int32, len(layers))
	for idx, layer := range layers {
		offs[idx], nbrs[idx] = g.LayerCSR(layer)
	}
	in, deg := sc.state, sc.deg
	members, queue := sc.members[:0], sc.queue[:0]
	if pinned != nil {
		pinned.ForEach(func(v int) bool {
			in[v] = stPinned
			return true
		})
	}
	S.ForEach(func(v int) bool {
		if in[v] == stOutside {
			in[v] = stAlive
			members = append(members, int32(v))
		}
		return true
	})

	steps, aborted := 0, false
	for _, v32 := range members {
		if steps++; stop != nil && steps%stopStride == 0 && stop() {
			aborted = true
			break
		}
		v := int(v32)
		for idx := range layers {
			dv := int32(0)
			for _, u := range nbrs[idx][offs[idx][v]:offs[idx][v+1]] {
				if in[u] != stOutside {
					dv++
				}
			}
			deg[idx][v] = dv
			if dv < int32(d) {
				in[v] = stDead
				queue = append(queue, v32)
				break // remaining layers' counters are never read for a dead vertex
			}
		}
	}

	for !aborted && len(queue) > 0 {
		if steps++; stop != nil && steps%stopStride == 0 && stop() {
			aborted = true
			break
		}
		v := int(queue[len(queue)-1])
		queue = queue[:len(queue)-1]
		for idx := range layers {
			for _, u32 := range nbrs[idx][offs[idx][v]:offs[idx][v+1]] {
				u := int(u32)
				if in[u] != stAlive {
					continue
				}
				deg[idx][u]--
				if deg[idx][u] < int32(d) {
					in[u] = stDead
					queue = append(queue, u32)
				}
			}
		}
	}

	var out *bitset.Set
	if pinned == nil || aborted {
		out = bitset.New(n)
	} else {
		out = pinned.Clone()
	}
	for _, v32 := range members {
		if !aborted && in[v32] == stAlive {
			out.Add(int(v32))
		}
		in[v32] = stOutside // restore the scratch invariant
	}
	if pinned != nil {
		pinned.ForEach(func(v int) bool {
			in[v] = stOutside
			return true
		})
	}
	sc.members, sc.queue = members, queue[:0]
	return out, !aborted
}

// Coreness computes the full core decomposition of one layer restricted
// to alive, using the O(m) bin-sort algorithm of Batagelj and Zaversnik.
// The result maps each vertex to its coreness (the largest d such that the
// vertex belongs to the d-core); vertices outside alive get -1. Passing
// alive == nil means all vertices.
func Coreness(g *multilayer.Graph, layer int, alive *bitset.Set) []int {
	n := g.N()
	if alive == nil {
		return corenessFull(g, layer)
	}
	offs, nbrs := g.LayerCSR(layer) // hot loop: flat CSR iteration
	coreness := make([]int, n)
	for v := range coreness {
		coreness[v] = -1
	}
	deg := make([]int, n)
	maxDeg := 0
	alive.ForEach(func(v int) bool {
		dv := 0
		for _, u := range nbrs[offs[v]:offs[v+1]] {
			if alive.Contains(int(u)) {
				dv++
			}
		}
		deg[v] = dv
		if dv > maxDeg {
			maxDeg = dv
		}
		return true
	})

	// Bin sort vertices by degree.
	bin := make([]int, maxDeg+2)
	alive.ForEach(func(v int) bool {
		bin[deg[v]]++
		return true
	})
	start := 0
	for dv := 0; dv <= maxDeg; dv++ {
		num := bin[dv]
		bin[dv] = start
		start += num
	}
	nAlive := alive.Count()
	vert := make([]int32, nAlive)
	pos := make([]int, n)
	alive.ForEach(func(v int) bool {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = int32(v)
		bin[deg[v]]++
		return true
	})
	for dv := maxDeg; dv > 0; dv-- {
		bin[dv] = bin[dv-1]
	}
	bin[0] = 0

	for i := 0; i < nAlive; i++ {
		v := int(vert[i])
		coreness[v] = deg[v]
		for _, u32 := range nbrs[offs[v]:offs[v+1]] {
			u := int(u32)
			if !alive.Contains(u) || deg[u] <= deg[v] {
				continue
			}
			du, pu := deg[u], pos[u]
			pw := bin[du]
			w := int(vert[pw])
			if u != w {
				pos[u], pos[w] = pw, pu
				vert[pu], vert[pw] = int32(w), int32(u)
			}
			bin[du]++
			deg[u]--
		}
	}
	return coreness
}

// corenessFull is the unmasked specialization of Coreness: with every
// vertex alive the initial degrees are the CSR row lengths and the bin
// sort needs no membership probes, so the whole decomposition runs on
// flat arrays in O(n + m). It performs the same vertex and neighbor
// visits in the same order as the masked path over a full mask, so the
// output is identical (see TestCorenessFullMatchesMasked).
func corenessFull(g *multilayer.Graph, layer int) []int {
	n := g.N()
	offs, nbrs := g.LayerCSR(layer) // hot loop: flat CSR iteration
	coreness := make([]int, n)
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		dv := int(offs[v+1] - offs[v])
		deg[v] = dv
		if dv > maxDeg {
			maxDeg = dv
		}
	}

	// Bin sort vertices by degree.
	bin := make([]int, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := 0
	for dv := 0; dv <= maxDeg; dv++ {
		num := bin[dv]
		bin[dv] = start
		start += num
	}
	vert := make([]int32, n)
	pos := make([]int, n)
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = int32(v)
		bin[deg[v]]++
	}
	for dv := maxDeg; dv > 0; dv-- {
		bin[dv] = bin[dv-1]
	}
	bin[0] = 0

	for i := 0; i < n; i++ {
		v := int(vert[i])
		coreness[v] = deg[v]
		for _, u32 := range nbrs[offs[v]:offs[v+1]] {
			u := int(u32)
			if deg[u] <= deg[v] {
				continue
			}
			du, pu := deg[u], pos[u]
			pw := bin[du]
			w := int(vert[pw])
			if u != w {
				pos[u], pos[w] = pw, pu
				vert[pu], vert[pw] = int32(w), int32(u)
			}
			bin[du]++
			deg[u]--
		}
	}
	return coreness
}

// CoreFromCoreness converts a coreness array into the d-core vertex set.
func CoreFromCoreness(coreness []int, d int) *bitset.Set {
	s := bitset.New(len(coreness))
	for v, c := range coreness {
		if c >= d {
			s.Add(v)
		}
	}
	return s
}
