package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// The host's speed drifts: on a shared machine the same code on the same
// inputs has run 20-40% slower for minutes at a time, and 10-15% slower
// or faster from one second to the next. A run therefore also times a
// reference kernel that belongs to the benchmark, not to the program
// under test, and scales its end-to-end timings to a host on which that
// kernel takes refNominalMS. The kernel is of the program's kind, a
// k-core peel over a CSR graph of a few MB, run on every CPU at once, as
// the stack uses them; a change to the program cannot move it. It runs
// while the stack is idle, in short rounds spread over the interval it
// scales, so it sees the same seconds of the host: after each set-up,
// and in refPauses pauses that cut the untraced window into equal parts. The unscaled figures and the reference times are printed
// beside the scaled ones.
const (
	refN      = 1 << 17 // reference graph: vertices
	refDegree = 8       // and mean degree
	// refNominalMS is the kernel's median time on the host the bounds were
	// tuned on (2-vCPU VM, GOMAXPROCS 2), so scaled figures read like
	// figures measured there.
	refNominalMS = 25.0

	refSetupRounds = 3  // rounds after each set-up
	refPauses      = 30 // pauses in the untraced window
	refPauseRounds = 3  // rounds in each pause
)

// refGraph is the reference kernel's input: an undirected CSR graph
// whose endpoints are drawn with a skew, so its cores range over many
// values, as a planted-community graph's do.
type refGraph struct {
	off, adj []int32
}

// refKernel is the reference graph and one scratch per CPU, each used
// once untimed, so no round pays for first touches of its memory.
type refKernel struct {
	g       *refGraph
	scratch []*refScratch
}

// heapMiB returns the heap the kernel holds, which heap_mb leaves out:
// each of its slices is one large object, allocated in whole 8 KiB pages.
func (k *refKernel) heapMiB() float64 {
	total := 0
	add := func(xs []int32) { total += (4*cap(xs) + 8191) / 8192 * 8192 }
	add(k.g.off)
	add(k.g.adj)
	for _, s := range k.scratch {
		add(s.deg)
		add(s.pos)
		add(s.vert)
		add(s.bin)
	}
	return float64(total) / (1 << 20)
}

var refOnce = sync.OnceValue(func() *refKernel {
	k := &refKernel{g: newRefGraph(refN, refN*refDegree/2, 1)}
	for range runtime.GOMAXPROCS(0) {
		s := newRefScratch(refN)
		k.g.peel(s)
		k.scratch = append(k.scratch, s)
	}
	return k
})

// newRefGraph draws m edges over n vertices from seed; an edge's first
// endpoint is skewed towards low ids, its second uniform.
func newRefGraph(n, m int, seed int64) *refGraph {
	rng := rand.New(rand.NewSource(seed))
	pick := func() int32 {
		f := rng.Float64()
		return int32(f * f * float64(n))
	}
	eu, ev := make([]int32, 0, m), make([]int32, 0, m)
	off := make([]int32, n+1)
	for len(eu) < m {
		u, v := pick(), int32(rng.Intn(n))
		if u == v {
			continue
		}
		eu, ev = append(eu, u), append(ev, v)
		off[u+1]++
		off[v+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	g := &refGraph{off: off, adj: make([]int32, 2*m)}
	fill := append([]int32(nil), off[:n]...)
	for i := range eu {
		u, v := eu[i], ev[i]
		g.adj[fill[u]], g.adj[fill[v]] = v, u
		fill[u]++
		fill[v]++
	}
	return g
}

// refScratch is one peel's working memory.
type refScratch struct{ deg, pos, vert, bin []int32 }

func newRefScratch(n int) *refScratch {
	return &refScratch{
		deg: make([]int32, n), pos: make([]int32, n),
		vert: make([]int32, n), bin: make([]int32, n+1),
	}
}

// peel computes every vertex's coreness into s.deg by bucket peeling
// (Batagelj and Zaversnik) and returns the largest. Parallel edges
// count once each, as they do in the degrees.
func (g *refGraph) peel(s *refScratch) int32 {
	deg, pos, vert, bin := s.deg, s.pos, s.vert, s.bin
	clear(bin)
	md := int32(0)
	for v := range deg {
		deg[v] = g.off[v+1] - g.off[v]
		bin[deg[v]]++
		md = max(md, deg[v])
	}
	start := int32(0)
	for d := int32(0); d <= md; d++ {
		start, bin[d] = start+bin[d], start
	}
	for v := range deg {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = int32(v)
		bin[deg[v]]++
	}
	for d := md; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	top := int32(0)
	for i := range vert {
		v := vert[i]
		top = max(top, deg[v])
		for _, u := range g.adj[g.off[v]:g.off[v+1]] {
			if deg[u] > deg[v] {
				du, pu := deg[u], pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u], vert[pu] = pw, w
					pos[w], vert[pw] = pu, u
				}
				bin[du]++
				deg[u]--
			}
		}
	}
	return top
}

// hostRef collects the program's garbage first, so that no GC cycle runs
// beside the kernel, then runs rounds rounds of it, one peel per CPU at
// once in each, and appends each round's mean peel time in ms to xs. A
// round's mean, not each peel, is one sample: when one CPU is slower than
// the other, half the peels are slow, and a median over peels would jump
// between the two speeds.
func hostRef(rounds int, xs []float64) []float64 {
	k := refOnce()
	runtime.GC()
	times := make([]float64, len(k.scratch))
	for range rounds {
		var wg sync.WaitGroup
		for p, s := range k.scratch {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				k.g.peel(s)
				times[p] = ms(time.Since(start))
			}()
		}
		wg.Wait()
		sum := 0.0
		for _, t := range times {
			sum += t
		}
		xs = append(xs, sum/float64(len(times)))
	}
	return xs
}
