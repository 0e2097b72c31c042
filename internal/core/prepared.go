// Prepared graph handles: the context-aware engine substrate.
//
// The DCCS algorithms share an expensive per-graph preparation phase that
// is independent of the query parameters (s, k, Seed) and depends on d
// only through the removal hierarchy: per-layer coreness (d-independent),
// and per d the full-graph removal hierarchy of §V-C, from which the
// §IV-C vertex-deletion survivors and reduced per-layer cores for EVERY
// support threshold s fall out as O(n) level-set scans. A Prepared caches
// both tiers and serves concurrent, cancellable queries; the free
// functions (GreedyDCCS & co.) remain as thin wrappers over a throwaway
// Prepared.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/pool"
)

// Prepared is a long-lived handle on one immutable graph that amortizes
// preprocessing across queries. It is safe for concurrent use: artifact
// construction is guarded, queries only read the cache.
type Prepared struct {
	g       *multilayer.Graph
	workers int

	corenessOnce sync.Once
	coreness     [][]int // per layer: full core decomposition (d-independent)
	maxCoreness  int     // max over layers and vertices; set with coreness

	mu  sync.Mutex
	byD map[int]*dArtifact

	corenessBuilds  atomic.Int64
	hierarchyBuilds atomic.Int64

	// arena pools per-query scratch (see queryArena); every buffer inside
	// is sized for g, making the Prepared itself the natural pool key.
	arena sync.Pool

	// version is the graph version these artifacts were computed for: 0
	// for a freshly constructed handle, the batch counter for handles
	// produced by Derive on the live-graph update path. It is stamped
	// into snapshots so a warm start of a mutated engine resumes its
	// version sequence. Atomic only because RestoreSnapshot may adopt a
	// persisted version while a snapshot loop reads it.
	version atomic.Uint64
}

// dArtifact is the lazily built per-d cache slot. buildMu serializes
// builds for the same d while distinct d values build independently; a
// build aborted by query cancellation leaves hier nil so the next query
// for that d retries, rather than caching a partial hierarchy behind a
// spent sync.Once. done flips after a successful build, letting the
// snapshot writer enumerate finished entries without blocking on (or
// triggering) in-flight builds.
type dArtifact struct {
	buildMu sync.Mutex
	hier    *hierarchy
	done    atomic.Bool
}

// PreparedCounters reports how often each artifact tier was actually
// built — the observable half of the amortization contract: after any
// number of queries, CorenessBuilds is at most 1 and HierarchyBuilds is
// at most the number of distinct d values queried.
type PreparedCounters struct {
	CorenessBuilds  int64
	HierarchyBuilds int64
}

// NewPrepared returns a prepared handle on g. workers bounds the
// parallelism of artifact construction (≤ 0 means serial). Artifacts are
// built lazily on first use; NewPrepared itself is cheap.
func NewPrepared(g *multilayer.Graph, workers int) *Prepared {
	if workers < 1 {
		workers = 1
	}
	return &Prepared{g: g, workers: workers, byD: map[int]*dArtifact{}}
}

// Graph returns the underlying graph.
func (pr *Prepared) Graph() *multilayer.Graph { return pr.g }

// Counters returns the artifact-build counters.
func (pr *Prepared) Counters() PreparedCounters {
	return PreparedCounters{
		CorenessBuilds:  pr.corenessBuilds.Load(),
		HierarchyBuilds: pr.hierarchyBuilds.Load(),
	}
}

// MaxCoreness returns the graph's maximum coreness over all layers and
// vertices, computing the (d-independent, cached) per-layer coreness on
// first use. Every degree threshold beyond it yields empty d-cores, so
// d values above MaxCoreness()+1 are interchangeable — the fact the
// per-d cache clamp and the engine's cache-key canonicalization share.
func (pr *Prepared) MaxCoreness() int {
	pr.layerCoreness()
	return pr.maxCoreness
}

// Prepare eagerly builds the cached artifacts for degree threshold d —
// the per-layer coreness (shared by all d) and the per-d removal
// hierarchy — so the first query for that d does not pay construction
// latency.
func (pr *Prepared) Prepare(d int) {
	pr.hierarchyFor(context.Background(), d)
}

// PrepareDs eagerly builds the per-d removal hierarchies for every
// listed degree threshold (each ≥ 1; duplicates and thresholds beyond
// the maxCoreness+1 sentinel clamp coalesce) in ONE shared sweep: the
// per-d tracker initializations, ordinarily O(Σ m_i) each, are derived
// incrementally from a single pass because the d-cores are nested level
// sets (see buildHierarchies). Thresholds already cached are skipped.
// Every produced hierarchy is byte-identical to the one the lazy
// hierarchyFor path would build.
//
// Cancelling ctx mid-sweep returns ctx.Err() after caching only the
// thresholds whose hierarchies were fully completed — the per-d
// cancellation contract, extended to the batch.
func (pr *Prepared) PrepareDs(ctx context.Context, ds ...int) error {
	coreness := pr.layerCoreness() // also resolves maxCoreness
	want := make([]int, 0, len(ds))
	seen := make(map[int]bool, len(ds))
	for _, d := range ds {
		if d < 1 {
			return fmt.Errorf("core: degree threshold d = %d, want ≥ 1", d)
		}
		if d > pr.maxCoreness+1 {
			d = pr.maxCoreness + 1
		}
		if !seen[d] {
			seen[d] = true
			want = append(want, d)
		}
	}
	slices.Sort(want)
	pending := want[:0]
	for _, d := range want {
		if !pr.artifact(d).done.Load() {
			pending = append(pending, d)
		}
	}
	switch len(pending) {
	case 0:
		return nil
	case 1:
		// A single threshold gains nothing from a sweep; take the lazy
		// path (which also serializes with concurrent builders for d).
		if hr := pr.hierarchyFor(ctx, pending[0]); hr == nil {
			return ctx.Err()
		}
		return nil
	}
	return buildHierarchies(ctx, pr.g, pending, coreness, pr.workers, pr.install)
}

// PrepareAll builds every distinct hierarchy the graph admits — d from 1
// to maxCoreness+1, the sentinel serving all larger thresholds — in one
// shared sweep. See PrepareDs for the cancellation contract.
func (pr *Prepared) PrepareAll(ctx context.Context) error {
	ds := make([]int, 0, pr.MaxCoreness()+1)
	for d := 1; d <= pr.maxCoreness+1; d++ {
		ds = append(ds, d)
	}
	return pr.PrepareDs(ctx, ds...)
}

// artifact returns (creating if needed) the cache slot for d. The caller
// is responsible for the d clamp.
func (pr *Prepared) artifact(d int) *dArtifact {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	a := pr.byD[d]
	if a == nil {
		a = &dArtifact{}
		pr.byD[d] = a
	}
	return a
}

// install caches a fully built hierarchy for d unless a concurrent
// builder won the slot; determinism makes the two interchangeable, so
// the loser is simply dropped (and not counted as a build).
func (pr *Prepared) install(d int, hr *hierarchy) {
	a := pr.artifact(d)
	a.buildMu.Lock()
	defer a.buildMu.Unlock()
	if a.hier == nil {
		a.hier = hr
		pr.hierarchyBuilds.Add(1)
		a.done.Store(true)
	}
}

// layerCoreness returns the d-independent per-layer coreness arrays,
// computing them on first use (sharded across layers).
func (pr *Prepared) layerCoreness() [][]int {
	pr.corenessOnce.Do(func() {
		pr.coreness = make([][]int, pr.g.L())
		pool.Run(pr.workers, pr.g.L(), func(i int) {
			pr.coreness[i] = kcore.Coreness(pr.g, i, nil)
		})
		for _, cn := range pr.coreness {
			for _, c := range cn {
				if c > pr.maxCoreness {
					pr.maxCoreness = c
				}
			}
		}
		pr.corenessBuilds.Add(1)
	})
	return pr.coreness
}

// hierarchyFor returns the per-d removal hierarchy, building it on first
// use for that d. The cache key is clamped at maxCoreness+1: for every d
// beyond the graph's maximum coreness all per-layer d-cores are empty,
// so the hierarchies are identical and one sentinel entry serves them
// all. Distinct cache entries are thereby bounded by the graph's
// structure, never by the (query-controlled) range of D values seen.
//
// The build itself honors ctx: cancellation mid-build returns nil and
// caches nothing, so a cancelled first query never poisons the shared
// slot — the next query for the same d simply rebuilds under its own
// context.
func (pr *Prepared) hierarchyFor(ctx context.Context, d int) *hierarchy {
	coreness := pr.layerCoreness() // also resolves maxCoreness
	if d > pr.maxCoreness+1 {
		d = pr.maxCoreness + 1
	}
	a := pr.artifact(d)
	a.buildMu.Lock()
	defer a.buildMu.Unlock()
	if a.hier == nil {
		hr := buildHierarchy(ctx, pr.g, d, coreness, pr.workers)
		if hr == nil {
			return nil // cancelled mid-build; slot stays empty
		}
		a.hier = hr
		pr.hierarchyBuilds.Add(1)
		a.done.Store(true)
	}
	return a.hier
}

// newPrep derives the per-query search state from the cached artifacts:
// the vertex-deletion survivors and reduced per-layer d-cores for this
// query's s are the level sets {h(v) ≥ s} and {coreh_i(v) ≥ s} of the
// per-d hierarchy — two O(n·l) scans instead of a fresh decomposition.
// The bitsets come from a pooled arena checked out for this query alone
// (released by prep.release after result assembly), so concurrent
// queries never share mutable state; the hierarchy is shared read-only.
func (pr *Prepared) newPrep(ctx context.Context, opts Options) *prep {
	g := pr.g
	n := g.N()
	hr := pr.hierarchyFor(ctx, opts.D)
	if hr == nil {
		// Cancelled during artifact construction. The valid partial here
		// is the empty survivor set: every algorithm sees an empty search
		// space (and re-checks interrupted() before expanding anything),
		// so the query drains immediately with the truncated flags set.
		p := &prep{
			g:     g,
			opts:  opts,
			ctx:   ctx,
			h:     make([]int32, n),
			rng:   rand.New(rand.NewSource(opts.Seed)),
			alive: bitset.New(n),
		}
		p.stats.truncated.Store(true)
		p.stats.interrupted.Store(true)
		p.cores = make([]*bitset.Set, g.L())
		for i := range p.cores {
			p.cores[i] = bitset.New(n)
		}
		p.order = make([]int, g.L())
		for i := range p.order {
			p.order[i] = i
		}
		return p
	}
	a := pr.getArena()
	p := &prep{
		g:     g,
		opts:  opts,
		ctx:   ctx,
		h:     hr.h,
		rng:   rand.New(rand.NewSource(opts.Seed)),
		owner: pr,
		arena: a,
	}
	minH := int32(opts.S)
	p.alive = a.alive
	if opts.NoVertexDeletion {
		// Fig 28's No-VD ablation: every vertex stays, the cores are the
		// initial d-cores (membership outlived threshold 0).
		minH = 1
		p.alive.Fill()
	} else {
		p.alive.Clear()
		for v := 0; v < n; v++ {
			if hr.h[v] >= minH {
				p.alive.Add(v)
			}
		}
		p.stats.preprocessRemoved.Add(int64(n - p.alive.Count()))
	}
	p.cores = a.cores
	for i := 0; i < g.L(); i++ {
		core := a.cores[i]
		core.Clear()
		ch := hr.coreh[i]
		for v := 0; v < n; v++ {
			if ch[v] >= minH {
				core.Add(v)
			}
		}
	}
	p.order = make([]int, g.L())
	for i := range p.order {
		p.order[i] = i
	}
	return p
}

// preprocess runs the §IV-C preprocessing through a throwaway Prepared,
// preserving the historical entry point for tests and the free-function
// wrappers.
func preprocess(g *multilayer.Graph, opts Options) *prep {
	return NewPrepared(g, opts.MaterializeWorkers()).newPrep(context.Background(), opts)
}
