package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/kcore"
	"repro/internal/multilayer"
)

// prep holds the per-query state the DCCS algorithms run against, derived
// from a Prepared's cached artifacts by newPrep: the alive vertex set
// left by vertex deletion (§IV-C, lines 1–7 of BU-DCCS, Fig 7), the
// per-layer d-cores of the reduced graph, the layer permutation induced
// by layer sorting, and the query's context. Layer sorting and result
// initialization are applied separately by each algorithm since their
// direction differs (BU sorts descending, TD ascending, GD is
// order-insensitive).
type prep struct {
	g     *multilayer.Graph
	opts  Options
	ctx   context.Context // query lifetime; nil means run to completion
	h     []int32         // per-d removal thresholds (hierarchy.h), shared read-only
	alive *bitset.Set
	cores []*bitset.Set // per original layer, restricted to alive
	order []int         // position -> original layer id
	rng   *rand.Rand
	stats runStats

	// owner/arena track the pooled scratch backing alive, cores and the
	// top-down search buffers; release returns it once the Result — which
	// never aliases arena memory — is assembled. Both are nil on the
	// cancelled-build path, which allocates fresh.
	owner *Prepared
	arena *queryArena
}

// interrupted reports whether the query's context has been cancelled or
// its deadline exceeded, marking the run truncated+interrupted on the
// first positive answer. The search loops consult it at every tree-node
// expansion, so cancellation yields a valid partial result instead of
// burning CPU; under the parallel engine every worker checks the same
// shared context.
func (p *prep) interrupted() bool {
	if p.ctx == nil || p.ctx.Err() == nil {
		return false
	}
	p.stats.truncated.Store(true)
	p.stats.interrupted.Store(true)
	return true
}

// admitNode gates one search-tree node expansion on both the query
// context and the MaxTreeNodes budget.
func (p *prep) admitNode() bool {
	if p.interrupted() {
		return false
	}
	return p.stats.addTreeNode(p.opts.MaxTreeNodes)
}

// notify streams a successful result-set update to the query's
// OnCandidate hook, if any. The slices handed over are copies: the
// originals are retained by the top-k set (and, for greedy, the result
// under construction), so a callback that mutates or keeps its CC must
// not be able to corrupt the engine's state.
func (p *prep) notify(vertices []int32, layers []int) {
	if p.opts.OnCandidate == nil {
		return
	}
	p.opts.OnCandidate(CC{
		Layers:   append([]int(nil), layers...),
		Vertices: append([]int32(nil), vertices...),
	})
}

// sortLayers fixes the layer permutation: descending |C^d(G_i)| for the
// bottom-up algorithm, ascending for the top-down algorithm (§IV-C,
// §V-D). Ties break on the original layer id for determinism.
func (p *prep) sortLayers(ascending bool) {
	if p.opts.NoSortLayers {
		return
	}
	slices.SortStableFunc(p.order, func(a, b int) int {
		ca, cb := p.cores[a].Count(), p.cores[b].Count()
		if ca != cb {
			if ascending {
				return cmp.Compare(ca, cb)
			}
			return cmp.Compare(cb, ca)
		}
		return cmp.Compare(a, b)
	})
}

// layersOf maps sorted search positions to sorted original layer ids.
func (p *prep) layersOf(positions []int) []int {
	out := make([]int, len(positions))
	for i, pos := range positions {
		out[i] = p.order[pos]
	}
	slices.Sort(out)
	return out
}

// initTopK seeds the result set with k greedily constructed candidates,
// the InitTopK procedure of Appendix D: pick the layer whose d-core adds
// the most uncovered vertices, grow its layer set to size s by maximum
// d-core intersection, compute the d-CC, and update R; repeat k times.
func (p *prep) initTopK(topk *coverage.TopK) {
	if p.opts.NoInitResult {
		return
	}
	g, d, s, k := p.g, p.opts.D, p.opts.S, p.opts.K
	for pass := 0; pass < k; pass++ {
		if p.interrupted() {
			return
		}
		best, bestGain := -1, -1
		for i := 0; i < g.L(); i++ {
			gain := 0
			p.cores[i].ForEach(func(v int) bool {
				if !topk.Covered(v) {
					gain++
				}
				return true
			})
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		L := []int{best}
		C := p.cores[best].Clone()
		for len(L) < s {
			bestJ, bestInter := -1, -1
			for j := 0; j < g.L(); j++ {
				if containsInt(L, j) {
					continue
				}
				if inter := C.CountAnd(p.cores[j]); inter > bestInter {
					bestJ, bestInter = j, inter
				}
			}
			L = append(L, bestJ)
			C.And(p.cores[bestJ])
		}
		slices.Sort(L)
		cc := kcore.DCC(g, C, L, d)
		p.stats.dccCalls.Add(1)
		if vs := cc.Slice32(); topk.Update(vs, L) {
			p.stats.updates.Add(1)
			p.notify(vs, L)
		}
	}
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// finish assembles the Result from the final top-k set, sorting cores by
// layer set for deterministic output. Entries with identical layer sets
// (possible when InitTopK builds the same greedy candidate twice) carry
// identical d-CCs, so only one representative is kept; coverage is
// unaffected.
func (p *prep) finish(topk *coverage.TopK) *Result {
	res := &Result{CoverSize: topk.CoverSize(), Stats: p.stats.snapshot()}
	seen := map[string]bool{}
	for _, e := range topk.Entries() {
		key := fmt.Sprint(e.Layers)
		if seen[key] {
			continue
		}
		seen[key] = true
		res.Cores = append(res.Cores, CC{Layers: e.Layers, Vertices: e.Vertices})
	}
	slices.SortFunc(res.Cores, func(a, b CC) int {
		return slices.Compare(a.Layers, b.Layers)
	})
	return res
}

func lessIntSlices(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
