package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/testutil"
)

// TestBuildHierarchiesMatchesPerD pins the tentpole byte-identity
// contract: the shared multi-d sweep must produce, for every threshold,
// a hierarchy deeply equal to an independent buildHierarchy call — same
// removal thresholds, same coreh thresholds.
func TestBuildHierarchiesMatchesPerD(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := testutil.RandomCorrelatedGraph(rng, 100, 4, 0.25, 0.85, 0.1)
	pr := NewPrepared(g, 2)
	coreness := pr.layerCoreness()
	maxc := pr.maxCoreness
	if maxc < 2 {
		t.Fatalf("test graph too sparse: max coreness %d", maxc)
	}
	ds := make([]int, 0, maxc+1)
	for d := 1; d <= maxc+1; d++ {
		ds = append(ds, d)
	}
	shared := map[int]*hierarchy{}
	err := buildHierarchies(context.Background(), g, ds, coreness, 2, func(d int, hr *hierarchy) {
		shared[d] = hr
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		got := shared[d]
		if got == nil {
			t.Fatalf("d=%d: shared pass emitted nothing", d)
		}
		want := buildHierarchy(nil, g, d, coreness, 1)
		if !reflect.DeepEqual(got.coreh, want.coreh) {
			t.Fatalf("d=%d: coreh differs between shared and per-d build", d)
		}
		if !reflect.DeepEqual(got.h, want.h) {
			t.Fatalf("d=%d: removal thresholds differ between shared and per-d build", d)
		}
	}
}

// TestPrepareDsMatchesLazy checks the cache-facing contract: PrepareDs
// installs, per distinct pending threshold, exactly one hierarchy that is
// deeply equal to the one the lazy per-query path would build.
func TestPrepareDsMatchesLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := testutil.RandomCorrelatedGraph(rng, 80, 4, 0.25, 0.85, 0.1)
	prA := NewPrepared(g, 2)
	prB := NewPrepared(g, 2)
	maxc := prA.MaxCoreness()

	// Duplicates and beyond-clamp values must coalesce.
	ds := []int{2, 1, 2, maxc + 1, maxc + 50, 3}
	if err := prA.PrepareDs(context.Background(), ds...); err != nil {
		t.Fatal(err)
	}
	distinct := map[int]bool{1: true, 2: true, 3: true, maxc + 1: true}
	if got := prA.Counters().HierarchyBuilds; got != int64(len(distinct)) {
		t.Fatalf("HierarchyBuilds = %d, want %d", got, len(distinct))
	}
	for d := range distinct {
		got := prA.hierarchyFor(context.Background(), d)
		want := prB.hierarchyFor(context.Background(), d)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("d=%d: PrepareDs hierarchy differs from lazy build", d)
		}
	}
	// Re-preparing a fully warmed set is a no-op.
	if err := prA.PrepareDs(context.Background(), ds...); err != nil {
		t.Fatal(err)
	}
	if got := prA.Counters().HierarchyBuilds; got != int64(len(distinct)) {
		t.Fatalf("repeat PrepareDs rebuilt: HierarchyBuilds = %d, want %d", got, len(distinct))
	}
	if err := prA.PrepareDs(context.Background(), 0); err == nil {
		t.Fatal("PrepareDs accepted d = 0")
	}
}

// cancelAfterInstall is a context that reports cancellation as soon as
// the watched threshold's artifact is installed — a deterministic way to
// cancel a multi-d sweep exactly between two hierarchies.
type cancelAfterInstall struct {
	context.Context
	pr *Prepared
	d  int
}

func (c cancelAfterInstall) Err() error {
	if c.pr.artifact(c.d).done.Load() {
		return context.Canceled
	}
	return nil
}

// TestPrepareDsCancellationCachesCompleted pins the batch cancellation
// contract: a sweep cancelled mid-run caches every fully completed
// threshold — and nothing else — and a later PrepareDs resumes from
// exactly that point.
func TestPrepareDsCancellationCachesCompleted(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	g := testutil.RandomCorrelatedGraph(rng, 80, 4, 0.3, 0.85, 0.1)
	pr := NewPrepared(g, 1)
	maxc := pr.MaxCoreness()
	if maxc < 3 {
		t.Fatalf("test graph too sparse: max coreness %d", maxc)
	}
	ds := make([]int, 0, maxc+1)
	for d := 1; d <= maxc+1; d++ {
		ds = append(ds, d)
	}

	ctx := cancelAfterInstall{Context: context.Background(), pr: pr, d: 1}
	if err := pr.PrepareDs(ctx, ds...); err != context.Canceled {
		t.Fatalf("cancelled PrepareDs returned %v, want context.Canceled", err)
	}
	if !pr.artifact(1).done.Load() {
		t.Fatal("completed threshold d=1 was not cached")
	}
	for d := 2; d <= maxc+1; d++ {
		if pr.artifact(d).done.Load() {
			t.Fatalf("threshold d=%d cached despite cancellation before its build", d)
		}
	}
	if got := pr.Counters().HierarchyBuilds; got != 1 {
		t.Fatalf("HierarchyBuilds = %d after cancelled sweep, want 1", got)
	}

	// Resume: the fresh sweep builds only the missing thresholds, and the
	// results match a cold handle.
	if err := pr.PrepareDs(context.Background(), ds...); err != nil {
		t.Fatal(err)
	}
	if got := pr.Counters().HierarchyBuilds; got != int64(maxc+1) {
		t.Fatalf("HierarchyBuilds = %d after resume, want %d", got, maxc+1)
	}
	cold := NewPrepared(g, 1)
	for _, d := range ds {
		got := pr.hierarchyFor(context.Background(), d)
		want := cold.hierarchyFor(context.Background(), d)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("d=%d: resumed hierarchy differs from cold build", d)
		}
	}

	// A pre-cancelled context caches nothing.
	pre := NewPrepared(g, 1)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pre.PrepareDs(cctx, ds...); err == nil {
		t.Fatal("pre-cancelled PrepareDs succeeded")
	}
	if got := pre.Counters().HierarchyBuilds; got != 0 {
		t.Fatalf("pre-cancelled PrepareDs built %d hierarchies", got)
	}
}

// TestArenaReuseDeterminism hammers one Prepared with repeated and
// concurrent queries across all algorithms: the pooled query arenas must
// never leak state between queries, so every repetition of a query
// reproduces its first answer exactly. Run with -race this also checks
// the arena pool under contention.
func TestArenaReuseDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	g := testutil.RandomCorrelatedGraph(rng, 60, 4, 0.3, 0.85, 0.1)
	pr := NewPrepared(g, 2)
	ctx := context.Background()

	type runner func(context.Context, Options) (*Result, error)
	algos := map[string]runner{"bu": pr.BottomUp, "td": pr.TopDown, "gd": pr.Greedy}
	queries := []Options{
		{D: 2, S: 2, K: 2, Seed: 1},
		{D: 2, S: 3, K: 1, Seed: 5},
		{D: 3, S: 1, K: 3, Seed: 7},
		{D: 2, S: 4, K: 2, Seed: 2},
	}

	// Baselines from the first pass (arena cold).
	base := map[string]*Result{}
	for name, run := range algos {
		for qi, opts := range queries {
			res, err := run(ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			base[name+string(rune('0'+qi))] = res
		}
	}

	// Sequential repetitions force arena reuse on a warm pool.
	for rep := 0; rep < 3; rep++ {
		for name, run := range algos {
			for qi, opts := range queries {
				res, err := run(ctx, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := base[name+string(rune('0'+qi))]
				if res.CoverSize != want.CoverSize || !reflect.DeepEqual(res.Cores, want.Cores) {
					t.Fatalf("rep %d %s query %d: arena reuse changed the result", rep, name, qi)
				}
			}
		}
	}

	// Concurrent burst: arenas check out per query, so parallel queries
	// must neither race nor share state.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				for name, run := range algos {
					qi := (w + rep) % len(queries)
					res, err := run(ctx, queries[qi])
					if err != nil {
						errs <- err
						return
					}
					want := base[name+string(rune('0'+qi))]
					if res.CoverSize != want.CoverSize || !reflect.DeepEqual(res.Cores, want.Cores) {
						t.Errorf("worker %d %s query %d: concurrent arena reuse changed the result", w, name, qi)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
