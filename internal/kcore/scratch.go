package kcore

import "sync"

// dccScratch is the reusable per-call state of the flat DCC peel: the
// vertex state array, the per-layer degree counters, the member list
// and the deletion queue. Pooling it removes every per-call allocation
// from the peel — DCC sits in the inner loops of all three DCCS
// algorithms (candidate generation calls it once per tree node), so the
// allocator and GC pressure of the old per-call make()s was a measurable
// share of query time.
//
// Invariant: state is all-zero whenever the scratch is in the pool. The
// peel restores it by re-scanning the member list and the pinned set
// before releasing; deg, the member list and the queue may hold stale
// values, which is safe because every read of deg[idx][v] is preceded by
// a write in the same call (the init pass writes all layers of every
// vertex that survives it, and the cascade only reads degrees of
// surviving unpinned vertices).
type dccScratch struct {
	state   []uint8 // stOutside, stAlive, stDead (enqueued/removed) or stPinned
	deg     [][]int32
	members []int32
	queue   []int32
}

// dccPool holds scratches across DCC calls. One global pool is keyed by
// nothing: getDCCScratch grows a recycled scratch to the requested graph
// size, so mixed-size workloads converge on max-size buffers instead of
// thrashing per-size pools.
var dccPool = sync.Pool{New: func() any { return &dccScratch{} }}

// getDCCScratch returns a scratch sized for n vertices and nlayers
// layers, with state all-zero.
func getDCCScratch(n, nlayers int) *dccScratch {
	sc := dccPool.Get().(*dccScratch)
	if cap(sc.state) < n {
		sc.state = make([]uint8, n)
	} else {
		sc.state = sc.state[:n]
	}
	sc.deg = sc.deg[:cap(sc.deg)]
	for len(sc.deg) < nlayers {
		sc.deg = append(sc.deg, nil)
	}
	sc.deg = sc.deg[:nlayers]
	for i := range sc.deg {
		if cap(sc.deg[i]) < n {
			sc.deg[i] = make([]int32, n)
		} else {
			sc.deg[i] = sc.deg[i][:n]
		}
	}
	if sc.members == nil {
		sc.members = make([]int32, 0, 256)
	}
	if sc.queue == nil {
		sc.queue = make([]int32, 0, 256)
	}
	return sc
}

// putDCCScratch returns the scratch to the pool. The caller must have
// restored the all-zero state invariant first.
func putDCCScratch(sc *dccScratch) {
	sc.members = sc.members[:0]
	sc.queue = sc.queue[:0]
	dccPool.Put(sc)
}
