// Incremental artifact derivation for live graphs.
//
// When a mutable engine applies an edge-update batch, the expensive
// cached artifacts (per-layer coreness, per-d removal hierarchies) do
// not all die: an edge {u,v} on layer i can only change computations at
// degree thresholds d ≤ min(deg_i(u), deg_i(v)) — counting the edge
// itself, i.e. post-insert degrees for inserts and pre-delete degrees
// for deletes. Derive exploits that bound to carry every provably
// unaffected artifact from the old Prepared into a fresh handle on the
// post-update graph, so a small update on a warm engine invalidates a
// small slice of the cache instead of all of it. The argument is spelled
// out in DESIGN.md § Live graphs.
package core

import (
	"context"
	"slices"

	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/pool"
)

// DirtySet describes what an edge-update batch touched, in the terms
// Derive needs to decide artifact retention. The live store accumulates
// it while applying a batch.
type DirtySet struct {
	// Layers[i] is true when layer i's edge set changed. Indices beyond
	// len(Layers) are treated as clean.
	Layers []bool
	// UnionVerts lists every vertex incident to a changed edge (sorted,
	// deduplicated). Derive ignores it — no cached artifact is keyed by
	// vertex adjacency — and it stays for callers that report it.
	UnionVerts []int32
	// MaxDirtyD is max over changed edges of min(deg(u), deg(v)) on the
	// edge's layer, counting the edge itself. Removal hierarchies with
	// d > MaxDirtyD are byte-identical to a cold rebuild and are kept.
	MaxDirtyD int
}

// DeriveInfo reports what a Derive call preserved, discarded and rebuilt,
// for metrics and update responses.
type DeriveInfo struct {
	DirtyLayers            int
	RetainedHierarchies    int
	InvalidatedHierarchies int
	// RebuiltHierarchies counts the invalidated thresholds eagerly rebuilt
	// on the new handle — all of them, shared through one sweep, except
	// where the sentinel clamp coalesced several old entries into one.
	RebuiltHierarchies int
}

// Version returns the graph version this handle's artifacts correspond
// to: 0 for a handle built cold by NewPrepared, the update-batch counter
// for handles produced by Derive (or restored from a version-stamped
// snapshot).
func (pr *Prepared) Version() uint64 { return pr.version.Load() }

// Derive builds a Prepared for the post-update graph g, carrying over
// every artifact of pr that the update provably did not affect:
//
//   - per-layer coreness rows of clean layers are shared; dirty layers
//     are recomputed (in parallel) from g;
//   - completed per-d hierarchies with d > dirty.MaxDirtyD are shared
//     with the old handle; entries at or below the bound — and entries
//     whose d exceeds the new maxCoreness+1 sentinel clamp — are dropped
//     and eagerly rebuilt on the new handle, all sharing one sweep (see
//     rebuildHierarchies).
//
// pr itself is never mutated: queries running against the old handle
// keep observing a consistent pre-update state. The returned handle is
// stamped with version and inherits pr's build counters (plus one
// coreness build when any layer was dirty), so the amortization
// counters stay meaningful across updates.
func (pr *Prepared) Derive(g *multilayer.Graph, dirty DirtySet, version uint64) (*Prepared, DeriveInfo) {
	old := pr.layerCoreness() // resolves pr.coreness and pr.maxCoreness
	np := NewPrepared(g, pr.workers)
	np.version.Store(version)

	var info DeriveInfo
	l := g.L()
	coreness := make([][]int, l)
	dirtyIdx := make([]int, 0, l)
	for i := 0; i < l; i++ {
		if i < len(dirty.Layers) && dirty.Layers[i] {
			dirtyIdx = append(dirtyIdx, i)
		} else {
			coreness[i] = old[i]
		}
	}
	info.DirtyLayers = len(dirtyIdx)
	pool.Run(np.workers, len(dirtyIdx), func(j int) {
		coreness[dirtyIdx[j]] = kcore.Coreness(g, dirtyIdx[j], nil)
	})
	maxCoreness := 0
	for _, cn := range coreness {
		for _, c := range cn {
			if c > maxCoreness {
				maxCoreness = c
			}
		}
	}
	np.corenessOnce.Do(func() {
		np.coreness = coreness
		np.maxCoreness = maxCoreness
	})
	np.corenessBuilds.Store(pr.corenessBuilds.Load())
	if len(dirtyIdx) > 0 {
		np.corenessBuilds.Add(1)
	}
	np.hierarchyBuilds.Store(pr.hierarchyBuilds.Load())

	// Decide retention over the completed per-d entries under pr.mu.
	// In-flight builds (done not yet set) belong to the old graph and are
	// simply not carried. Hierarchies are immutable once built, so kept
	// entries are shared by pointer: queries on the old handle keep
	// reading the same arrays. np is not published yet, so its map needs
	// no lock.
	pr.mu.Lock()
	ds := make([]int, 0, len(pr.byD))
	for d := range pr.byD {
		ds = append(ds, d)
	}
	slices.Sort(ds)
	var rebuild []int
	for _, d := range ds {
		a := pr.byD[d]
		if !a.done.Load() || a.hier == nil {
			continue
		}
		// Retention requires both the degree bound (untouched by the
		// update) and the sentinel clamp (still addressable: restore and
		// hierarchyFor clamp d at maxCoreness+1 of the NEW graph).
		if d > dirty.MaxDirtyD && d <= maxCoreness+1 {
			kept := &dArtifact{hier: a.hier}
			kept.done.Store(true)
			np.byD[d] = kept
			info.RetainedHierarchies++
		} else {
			info.InvalidatedHierarchies++
			if d > maxCoreness+1 {
				d = maxCoreness + 1 // rebuild the sentinel the old entry now maps to
			}
			rebuild = append(rebuild, d)
		}
	}
	pr.mu.Unlock()
	info.RebuiltHierarchies = np.rebuildHierarchies(rebuild)
	return np, info
}

// rebuildHierarchies eagerly re-derives the invalidated thresholds on the
// new handle through one shared sweep (PrepareDs), so a warm cache stays
// warm across an update batch at a fraction of the per-d rebuild cost the
// first queries would otherwise pay serially. The list may repeat values
// (sentinel coalescing); PrepareDs dedupes and skips anything already
// installed. It returns the number of hierarchies actually built.
func (pr *Prepared) rebuildHierarchies(ds []int) int {
	if len(ds) == 0 {
		return 0
	}
	before := pr.hierarchyBuilds.Load()
	// Background context: Derive runs to completion once a batch has
	// mutated the store (see Engine.ApplyUpdates), so the rebuild does too
	// — PrepareDs cannot fail on a clamped, ≥ 1 threshold list.
	_ = pr.PrepareDs(context.Background(), ds...)
	return int(pr.hierarchyBuilds.Load() - before)
}
