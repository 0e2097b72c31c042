package core

import (
	"context"
	"math/bits"

	"repro/internal/kcore"
	"repro/internal/multilayer"
)

// hierarchy holds the per-d artifacts of one §V-C removal-hierarchy
// sweep over the full graph. Vertices are removed in batches: at
// threshold h, every vertex whose support Num(v) has dropped to ≤ h is
// removed, cores are recomputed, and the process repeats before h
// advances. The sweep records two things:
//
//   - h[v]: the threshold at which v was removed. It bounds RefineC's
//     scope by Lemma 8: C^d_{L′} ⊆ {v : h(v) ≥ |L′|}, since the first
//     member of any d-CC to be removed still has all members present,
//     hence support ≥ |L′|, and thresholds only grow.
//   - coreh[i][v]: the threshold at which v dropped out of layer i's
//     d-core (0 when v was never a member).
//
// Because the §IV-C vertex-deletion fixpoint for support s equals the
// hierarchy state after threshold s−1, the survivors for ANY s are
// {v : h[v] ≥ s} and the reduced d-core of layer i is
// {v : coreh[i][v] ≥ s} — the whole preprocessing phase becomes two O(n)
// scans per query once the hierarchy is cached. The sweep runs on the
// full graph, threshold 0 included, so it is keyed by d alone and shared
// read-only by every query (see DESIGN.md).
type hierarchy struct {
	h     []int32
	coreh [][]int32
}

// buildHierarchy constructs the removal hierarchy of g for degree
// threshold d, seeding the tracker from the caller's (required)
// per-layer coreness arrays so the initial peel is skipped.
//
// The batch loop polls ctx between batches: a partial hierarchy is
// never a valid artifact (thresholds above the abort point would be
// missing), so cancellation returns nil and the caller must not cache
// the result. A nil ctx runs to completion.
func buildHierarchy(ctx context.Context, g *multilayer.Graph, d int, coreness [][]int, workers int) *hierarchy {
	tr := kcore.NewTrackerFromCoreness(g, d, coreness, workers)
	return runHierarchy(ctx, g, tr, newHierScratch(g))
}

// buildHierarchies builds the removal hierarchies for every threshold in
// ds — which must be ascending, deduplicated and ≥ 1 — sharing one
// kcore.Sweep for tracker initialization and one batch-loop scratch, so
// the per-d initialization cost O(Σ m_i) is paid once for the whole set
// instead of once per d (the level sets {coreness ≥ d} are nested; see
// DESIGN.md § Shared multi-d hierarchy pass). emit is invoked with each
// completed hierarchy in ascending-d order; every emitted hierarchy is
// byte-identical to a buildHierarchy call for the same d.
//
// Cancellation is polled between batches like buildHierarchy's: on a
// cancelled context the function stops and returns ctx.Err(), after
// having emitted only fully completed thresholds — the caller may cache
// exactly what was emitted.
func buildHierarchies(ctx context.Context, g *multilayer.Graph, ds []int, coreness [][]int, workers int, emit func(d int, hr *hierarchy)) error {
	sweep := kcore.NewSweep(g, coreness, workers)
	sc := newHierScratch(g)
	for _, d := range ds {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		hr := runHierarchy(ctx, g, sweep.TrackerAt(d), sc)
		if hr == nil {
			return ctx.Err()
		}
		emit(d, hr)
	}
	return nil
}

// hierScratch is the reusable state of the batch loop: the bucket queue
// over support counts, the in-batch markers and the current batch.
// runHierarchy resets it on entry, so one scratch serves any sequence of
// builds.
type hierScratch struct {
	buckets [][]int32
	inBatch []bool
	batch   []int32
}

func newHierScratch(g *multilayer.Graph) *hierScratch {
	return &hierScratch{
		buckets: make([][]int32, g.L()+1),
		inBatch: make([]bool, g.N()),
	}
}

// runHierarchy drives the §V-C batch loop over a positioned tracker and
// assembles the hierarchy artifacts. The tracker must be freshly
// positioned at the full graph (all vertices alive); its listeners are
// installed here. Cancellation semantics are buildHierarchy's: a nil
// return means the context was cancelled and nothing may be cached.
func runHierarchy(ctx context.Context, g *multilayer.Graph, tr *kcore.Tracker, sc *hierScratch) *hierarchy {
	n := g.N()
	hr := &hierarchy{h: make([]int32, n), coreh: make([][]int32, g.L())}
	for i := range hr.coreh {
		hr.coreh[i] = make([]int32, n)
	}
	wide := g.L() > 64 // CoreLayers' bitmask holds 64 layers

	// Bucket queue over support counts. Stale entries are tolerated and
	// validated against the tracker on pop; each vertex re-enters a
	// bucket at most once per Num decrement, so the total work is
	// O(n·l) plus the tracker's own O(Σ m_i).
	buckets := sc.buckets
	for c := range buckets {
		buckets[c] = buckets[c][:0]
	}
	inBatch := sc.inBatch
	for v := range inBatch {
		inBatch[v] = false
	}
	for v := 0; v < n; v++ {
		buckets[tr.Num(v)] = append(buckets[tr.Num(v)], int32(v))
	}
	tr.NumListener = func(v int) {
		buckets[tr.Num(v)] = append(buckets[tr.Num(v)], int32(v))
	}

	curH := int32(0)
	tr.CoreListener = func(layer, v int) {
		hr.coreh[layer][v] = curH
	}

	// Threshold 0 first: vertices supported by no layer at all, the ones
	// vertex deletion would remove even at s = 1. Their removal cannot
	// cascade (they sit outside every core), so the batch is one sweep.
	for h := 0; h <= g.L(); h++ {
		curH = int32(h)
		for {
			if ctx != nil && ctx.Err() != nil {
				return nil
			}
			// Collect the batch: all still-alive vertices whose current
			// support is ≤ h.
			batch := sc.batch[:0]
			for c := 0; c <= h; c++ {
				kept := buckets[c][:0]
				for _, v32 := range buckets[c] {
					v := int(v32)
					switch {
					case !tr.Alive().Contains(v) || inBatch[v]:
						// removed already, or stale duplicate
					case tr.Num(v) != c:
						// stale entry; the vertex lives in another bucket
					default:
						inBatch[v] = true
						batch = append(batch, v32)
					}
				}
				buckets[c] = kept
			}
			sc.batch = batch
			if len(batch) == 0 {
				break
			}
			// Record the core memberships of the whole batch before any
			// removal: removing v ends its membership in every layer it
			// still belongs to, and the cascade listener covers the rest.
			for _, v32 := range batch {
				v := int(v32)
				hr.h[v] = int32(h)
				if wide {
					for i := 0; i < g.L(); i++ {
						if tr.Core(i).Contains(v) {
							hr.coreh[i][v] = int32(h)
						}
					}
				} else {
					for mask := tr.CoreLayers(v); mask != 0; {
						hr.coreh[bits.TrailingZeros64(mask)][v] = int32(h)
						mask &= mask - 1
					}
				}
			}
			for _, v32 := range batch {
				tr.RemoveVertex(int(v32))
			}
		}
	}

	return hr
}
