package core

import (
	"repro/internal/bitset"
)

// queryArena bundles the per-query allocations that previously dominated
// newPrep and the top-down search scratch: the survivor bitset, the
// per-layer reduced cores, and the refineU/refineC buffers (Rule 2
// counters and the Lemma 8 scope set). Arenas are pooled per Prepared —
// all buffers are sized for that handle's graph — and checked out for
// the duration of one query, so a steady query load reaches a fixed
// point of zero large allocations.
//
// Invariants between checkouts: counts is written before it is read;
// alive, cores and z are rebuilt from scratch (Clear/Fill) by their
// consumers. Nothing in a Result aliases arena memory — finish and the
// greedy/exact selection copy vertices and layers — so releasing after
// result assembly is safe.
type queryArena struct {
	alive  *bitset.Set
	cores  []*bitset.Set
	counts []int32
	z      *bitset.Set
}

// getArena checks an arena out of the pool, allocating a fresh one sized
// for the graph when the pool is empty.
func (pr *Prepared) getArena() *queryArena {
	if a, _ := pr.arena.Get().(*queryArena); a != nil {
		return a
	}
	n, l := pr.g.N(), pr.g.L()
	a := &queryArena{
		alive:  bitset.New(n),
		cores:  make([]*bitset.Set, l),
		counts: make([]int32, n),
		z:      bitset.New(n),
	}
	for i := 0; i < l; i++ {
		a.cores[i] = bitset.New(n)
	}
	return a
}

// release returns the query's arena to the owning Prepared's pool. The
// prep — and any search state built on it — must not be used afterwards;
// the assembled Result is safe (it holds only copies). A prep without an
// arena (the cancelled-build path, which allocates fresh) is a no-op.
func (p *prep) release() {
	if p.arena == nil {
		return
	}
	p.owner.arena.Put(p.arena)
	p.arena = nil
	p.owner = nil
}

// searchScratch returns the top-down search buffers, backed by the
// query's arena when one is checked out; the cancelled-build path has
// none and falls back to fresh allocations.
func (p *prep) searchScratch() (counts []int32, z *bitset.Set) {
	if a := p.arena; a != nil {
		return a.counts, a.z
	}
	n := p.g.N()
	return make([]int32, n), bitset.New(n)
}
