package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/kcore"
	"repro/internal/testutil"
)

// TestPreparedAmortizesArtifacts asserts the amortization contract: one
// Prepared serving many queries builds the per-layer coreness at most
// once and the removal hierarchy at most once per distinct d, regardless
// of how s, k, Seed and the algorithm vary.
func TestPreparedAmortizesArtifacts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testutil.RandomCorrelatedGraph(rng, 60, 4, 0.3, 0.85, 0.08)
	pr := NewPrepared(g, 1)
	ctx := context.Background()

	ds := []int{2, 3, 2, 2, 3, 2}
	for i, d := range ds {
		for s := 1; s <= g.L(); s++ {
			opts := Options{D: d, S: s, K: 1 + i%3, Seed: int64(i)}
			if _, err := pr.BottomUp(ctx, opts); err != nil {
				t.Fatal(err)
			}
			if _, err := pr.TopDown(ctx, opts); err != nil {
				t.Fatal(err)
			}
			if _, err := pr.Greedy(ctx, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := pr.Counters()
	if c.CorenessBuilds != 1 {
		t.Errorf("CorenessBuilds = %d, want 1", c.CorenessBuilds)
	}
	if c.HierarchyBuilds != 2 {
		t.Errorf("HierarchyBuilds = %d, want 2 (distinct d values 2 and 3)", c.HierarchyBuilds)
	}
}

// TestPreparedClampsCacheKey asserts the per-d cache cannot be grown by
// query-controlled d values beyond the graph's maximum coreness: every
// such d has all-empty per-layer cores, so one sentinel hierarchy
// serves them all, and the results still match the one-shot path.
func TestPreparedClampsCacheKey(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := testutil.RandomCorrelatedGraph(rng, 40, 3, 0.3, 0.85, 0.08)
	pr := NewPrepared(g, 1)
	ctx := context.Background()

	for _, d := range []int{1000, 2000, 1 << 30} {
		opts := Options{D: d, S: 2, K: 2, Seed: 1}
		warm, err := pr.BottomUp(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := BottomUpDCCS(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if warm.CoverSize != cold.CoverSize || len(warm.Cores) != len(cold.Cores) {
			t.Fatalf("d=%d: warm cover %d, cold cover %d", d, warm.CoverSize, cold.CoverSize)
		}
	}
	if c := pr.Counters(); c.HierarchyBuilds != 1 {
		t.Errorf("HierarchyBuilds = %d, want 1 (all over-degeneracy d share the sentinel)", c.HierarchyBuilds)
	}
}

// TestPreparedMatchesOneShot cross-checks every algorithm between a
// reused Prepared and the one-shot free functions on randomized
// instances: cached artifacts must never change an answer, including the
// search-effort statistics (only Elapsed may differ).
func TestPreparedMatchesOneShot(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 10+rng.Intn(25), 2+rng.Intn(4), 0.3, 0.85, 0.08)
		pr := NewPrepared(g, 1)
		ctx := context.Background()
		for trial := 0; trial < 3; trial++ {
			opts := Options{
				D:                1 + rng.Intn(3),
				S:                1 + rng.Intn(g.L()),
				K:                1 + rng.Intn(3),
				Seed:             seed + int64(trial),
				NoVertexDeletion: rng.Intn(2) == 0,
			}
			pairs := []struct {
				name string
				warm func() (*Result, error)
				cold func() (*Result, error)
			}{
				{"greedy", func() (*Result, error) { return pr.Greedy(ctx, opts) }, func() (*Result, error) { return GreedyDCCS(g, opts) }},
				{"bu", func() (*Result, error) { return pr.BottomUp(ctx, opts) }, func() (*Result, error) { return BottomUpDCCS(g, opts) }},
				{"td", func() (*Result, error) { return pr.TopDown(ctx, opts) }, func() (*Result, error) { return TopDownDCCS(g, opts) }},
			}
			for _, p := range pairs {
				warm, err1 := p.warm()
				cold, err2 := p.cold()
				if err1 != nil || err2 != nil {
					t.Logf("seed=%d %s: errs %v %v", seed, p.name, err1, err2)
					return false
				}
				if !reflect.DeepEqual(warm.Cores, cold.Cores) || warm.CoverSize != cold.CoverSize {
					t.Logf("seed=%d %s opts=%+v: warm cover %d, cold cover %d", seed, p.name, opts, warm.CoverSize, cold.CoverSize)
					return false
				}
				ws, cs := warm.Stats, cold.Stats
				ws.Elapsed, cs.Elapsed = 0, 0
				if ws != cs {
					t.Logf("seed=%d %s: stats diverge: %+v vs %+v", seed, p.name, ws, cs)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCancelledContextReturnsPartialResult cancels a context mid-search
// (from the first OnCandidate improvement) and checks that every
// algorithm returns a valid partial result flagged Truncated and
// Interrupted.
func TestCancelledContextReturnsPartialResult(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := testutil.RandomCorrelatedGraph(rng, 80, 6, 0.3, 0.85, 0.08)
	pr := NewPrepared(g, 1)

	algos := map[string]func(context.Context, Options) (*Result, error){
		"greedy": pr.Greedy,
		"bu":     pr.BottomUp,
		"td":     pr.TopDown,
		"exact":  pr.Exact,
	}
	for name, run := range algos {
		ctx, cancel := context.WithCancel(context.Background())
		opts := Options{D: 2, S: 3, K: 3, Seed: 1}
		if name != "exact" {
			// Cancel as soon as the search streams its first improvement,
			// so the run is interrupted mid-flight, not before it starts.
			opts.OnCandidate = func(CC) { cancel() }
		} else {
			cancel() // the exact solver does not stream; cancel up front
		}
		res, err := run(ctx, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Stats.Truncated || !res.Stats.Interrupted {
			t.Errorf("%s: Truncated=%v Interrupted=%v, want both true",
				name, res.Stats.Truncated, res.Stats.Interrupted)
		}
		if err := ValidateResult(g, Options{D: 2, S: 3, K: 3}, res); err != nil {
			t.Errorf("%s: partial result invalid: %v", name, err)
		}
		cancel()
	}
}

// TestCancelledContextParallelWorkers runs the parallel fan-out under a
// context cancelled mid-search: the pool must drain (pool.Run is a
// barrier, so returning is the leak check — run under -race in CI) and
// the merged partial result must validate.
func TestCancelledContextParallelWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := testutil.RandomCorrelatedGraph(rng, 120, 6, 0.3, 0.85, 0.08)
	pr := NewPrepared(g, 4)

	for _, algo := range []string{"bu", "td"} {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		opts := Options{D: 2, S: 3, K: 3, Seed: 1, Workers: 4,
			OnCandidate: func(CC) { once.Do(cancel) }}
		var res *Result
		var err error
		if algo == "bu" {
			res, err = pr.BottomUp(ctx, opts)
		} else {
			res, err = pr.TopDown(ctx, opts)
		}
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !res.Stats.Interrupted {
			t.Errorf("%s: Interrupted not set", algo)
		}
		if err := ValidateResult(g, Options{D: 2, S: 3, K: 3}, res); err != nil {
			t.Errorf("%s: partial result invalid: %v", algo, err)
		}
		cancel()
	}
}

// TestPreparedConcurrentQueries hammers one shared Prepared from many
// goroutines mixing algorithms and d values; every result must validate
// and the artifact counters must still reflect once-per-d construction.
// The -race CI run makes this a data-race check on the shared cache.
func TestPreparedConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := testutil.RandomCorrelatedGraph(rng, 60, 4, 0.3, 0.85, 0.08)
	pr := NewPrepared(g, 2)
	ctx := context.Background()

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := Options{D: 1 + i%3, S: 1 + i%g.L(), K: 2, Seed: int64(i), Workers: 1 + i%3}
			var res *Result
			var err error
			switch i % 3 {
			case 0:
				res, err = pr.Greedy(ctx, opts)
			case 1:
				res, err = pr.BottomUp(ctx, opts)
			default:
				res, err = pr.TopDown(ctx, opts)
			}
			if err == nil {
				err = ValidateResult(g, Options{D: opts.D, S: opts.S, K: opts.K}, res)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	c := pr.Counters()
	if c.CorenessBuilds != 1 {
		t.Errorf("CorenessBuilds = %d, want 1", c.CorenessBuilds)
	}
	if c.HierarchyBuilds > 3 {
		t.Errorf("HierarchyBuilds = %d, want ≤ 3 (distinct d values)", c.HierarchyBuilds)
	}
}

// TestPrecancelledContext runs every algorithm under an already-
// cancelled context: the result must come back immediately, empty or
// not, valid and flagged.
func TestPrecancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := testutil.RandomCorrelatedGraph(rng, 40, 4, 0.3, 0.85, 0.08)
	pr := NewPrepared(g, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for name, run := range map[string]func(context.Context, Options) (*Result, error){
		"greedy": pr.Greedy, "bu": pr.BottomUp, "td": pr.TopDown, "exact": pr.Exact,
	} {
		res, err := run(ctx, Options{D: 2, S: 2, K: 2, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Stats.Interrupted {
			t.Errorf("%s: Interrupted not set on pre-cancelled context", name)
		}
		if err := ValidateResult(g, Options{D: 2, S: 2, K: 2}, res); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestReducedCoresAreRootChildren pins the fact that lets the bottom-up
// search skip its root-child peels: the reduced core {coreh_j ≥ s} is
// already the d-core of layer j within the alive graph, i.e.
// DCC(alive ∩ cores[j], {j}) == cores[j].
func TestReducedCoresAreRootChildren(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 5+rng.Intn(40), 1+rng.Intn(6), 0.1+0.3*rng.Float64(), 0.85, 0.08)
		opts := Options{D: 1 + rng.Intn(4), S: 1 + rng.Intn(g.L()), K: 1, NoVertexDeletion: rng.Intn(2) == 0}
		p := preprocess(g, opts)
		defer p.release()
		for j, core := range p.cores {
			if got := kcore.DCC(g, p.alive.Intersection(core), []int{j}, opts.D); !got.Equal(core) {
				t.Logf("seed=%d %+v layer %d: peel %v, reduced core %v", seed, opts, j, got.Slice(), core.Slice())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
