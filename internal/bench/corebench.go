package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/kcore"
)

// coreBenchReport is the JSON artifact of the core-primitive benchmark:
// the shared multi-d hierarchy sweep against independent per-d builds,
// and the flat O(m) peel's latency and steady-state allocation rate.
type coreBenchReport struct {
	N           int `json:"n"`
	Layers      int `json:"layers"`
	TotalEdges  int `json:"total_edges"`
	MaxCoreness int `json:"max_coreness"`
	DistinctD   int `json:"distinct_d"`

	// Cold: one fresh Prepared handle per threshold, so every build pays
	// its own per-layer coreness pass — the fully independent single-d
	// cost model. Estimated from an
	// evenly spaced sample of ColdSampled thresholds.
	ColdSampled   int     `json:"cold_sampled"`
	ColdSingleD   float64 `json:"cold_single_d_secs"`
	SingleDSecs   float64 `json:"single_d_total_secs"`
	SharedAllD    float64 `json:"shared_all_d_secs"`
	SharedSpeedup float64 `json:"shared_speedup"`
	WarmSpeedup   float64 `json:"warm_speedup"`

	DCCIters       int     `json:"dcc_iters"`
	DCCSecs        float64 `json:"dcc_secs"`
	DCCAllocsPerOp float64 `json:"dcc_allocs_per_op"`
}

// coldSampleDs picks at most k evenly spaced thresholds out of [1, dmax]
// (always including both endpoints) for the cold-build estimate.
func coldSampleDs(dmax, k int) []int {
	if k >= dmax {
		ds := make([]int, dmax)
		for d := 1; d <= dmax; d++ {
			ds[d-1] = d
		}
		return ds
	}
	ds := make([]int, 0, k)
	for i := 0; i < k; i++ {
		d := 1 + i*(dmax-1)/(k-1)
		if len(ds) == 0 || ds[len(ds)-1] != d {
			ds = append(ds, d)
		}
	}
	return ds
}

// Core benchmarks the preprocessing primitives underneath every query,
// warming every degree threshold d ∈ [1, maxCoreness+1] three ways:
// cold (a fresh Prepared handle per threshold — fully independent
// builds, each paying its own coreness pass;
// estimated from an evenly spaced sample), warm lazy (one handle, one
// buildHierarchy per threshold over shared coreness), and the single
// PrepareAll sweep that derives all trackers incrementally from the
// nested level sets. The peel itself (kcore.DCC over the full vertex
// set and all layers) is timed separately with its steady-state
// allocations per call. The warmed handles must agree with each other —
// and the flat peel with the reference bin-sort peel — before any
// number is reported.
func (s *Suite) Core() ([]*Table, *coreBenchReport, error) {
	g := s.engineGraph()
	st := g.Stats()

	// Per-layer coreness is shared by every threshold on a warm handle;
	// resolve it on both before timing so the lazy-vs-sweep comparison
	// isolates hierarchy construction.
	prA := core.NewPrepared(g, 1)
	prB := core.NewPrepared(g, 1)
	maxc := prA.MaxCoreness()
	prB.MaxCoreness()

	sample := coldSampleDs(maxc+1, 48)
	start := time.Now()
	for _, d := range sample {
		cold := core.NewPrepared(g, 1)
		cold.Prepare(d)
	}
	coldEst := time.Since(start).Seconds() * float64(maxc+1) / float64(len(sample))

	start = time.Now()
	for d := 1; d <= maxc+1; d++ {
		prA.Prepare(d)
	}
	singleSecs := time.Since(start).Seconds()

	start = time.Now()
	if err := prB.PrepareAll(context.Background()); err != nil {
		return nil, nil, err
	}
	sharedSecs := time.Since(start).Seconds()

	if got, want := prB.Counters().HierarchyBuilds, prA.Counters().HierarchyBuilds; got != want {
		return nil, nil, fmt.Errorf("bench: shared pass built %d hierarchies, single-d loop built %d", got, want)
	}
	// The shared-sweep artifacts must serve the same answers as the
	// independently built ones.
	for _, opts := range []core.Options{
		{D: defaultD, S: defaultS, K: defaultK, Seed: 1},
		{D: maxc, S: 2, K: defaultK, Seed: 2},
	} {
		ra, err := prA.BottomUp(context.Background(), opts)
		if err != nil {
			return nil, nil, err
		}
		rb, err := prB.BottomUp(context.Background(), opts)
		if err != nil {
			return nil, nil, err
		}
		if ra.CoverSize != rb.CoverSize || !reflect.DeepEqual(ra.Cores, rb.Cores) {
			return nil, nil, fmt.Errorf("bench: shared sweep changed the answer (d=%d s=%d: per-d cover %d, shared cover %d)",
				opts.D, opts.S, ra.CoverSize, rb.CoverSize)
		}
	}

	full := bitset.NewFull(g.N())
	layers := make([]int, g.L())
	for i := range layers {
		layers[i] = i
	}
	flat := kcore.DCC(g, full, layers, defaultD)
	if ref := kcore.DCCBin(g, full, layers, defaultD); !flat.Equal(ref) {
		return nil, nil, fmt.Errorf("bench: flat peel disagrees with the reference bin-sort peel at d=%d", defaultD)
	}
	iters := 50
	if s.Quick {
		iters = 20
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start = time.Now()
	for i := 0; i < iters; i++ {
		kcore.DCC(g, full, layers, defaultD)
	}
	dccSecs := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	allocsPerOp := float64(ms1.Mallocs-ms0.Mallocs) / float64(iters)

	report := &coreBenchReport{
		N: st.N, Layers: st.Layers, TotalEdges: st.TotalEdges,
		MaxCoreness: maxc, DistinctD: maxc + 1,
		ColdSampled: len(sample), ColdSingleD: coldEst,
		SingleDSecs: singleSecs, SharedAllD: sharedSecs,
		DCCIters: iters, DCCSecs: dccSecs, DCCAllocsPerOp: allocsPerOp,
	}
	if sharedSecs > 0 {
		report.SharedSpeedup = coldEst / sharedSecs
		report.WarmSpeedup = singleSecs / sharedSecs
	}

	hier := &Table{
		Title:  "Hierarchy builds for all d ≤ max coreness + 1: cold vs lazy vs one shared sweep",
		Header: []string{"path", "builds", "total s", "speedup"},
		Notes: []string{
			fmt.Sprintf("benchmark graph: n=%d l=%d Σ|E|=%d, max coreness %d",
				st.N, st.Layers, st.TotalEdges, maxc),
			fmt.Sprintf("cold = fresh handle per d (independent coreness each time), estimated from %d of %d thresholds",
				len(sample), maxc+1),
			"lazy and sweep share one handle's coreness; both warmed handles verified to serve identical query answers",
		},
	}
	hier.Add("cold independent", maxc+1, coldEst, fmt.Sprintf("%.2fx", report.SharedSpeedup))
	hier.Add("lazy per-d", maxc+1, singleSecs, fmt.Sprintf("%.2fx", report.WarmSpeedup))
	hier.Add("shared sweep", maxc+1, sharedSecs, "1.00x")

	peel := &Table{
		Title:  "Flat O(m) peel: kcore.DCC over the full vertex set, all layers",
		Header: []string{"d", "iters", "total s", "s/op", "allocs/op"},
		Notes: []string{
			"steady state (scratch pool warm); result checked against the reference bin-sort peel",
		},
	}
	peel.Add(defaultD, iters, dccSecs, dccSecs/float64(iters), allocsPerOp)

	return []*Table{hier, peel}, report, nil
}

// RunCore executes the core-primitive benchmark, prints its tables, and
// — when OutDir is set — writes the BENCH_core.json artifact.
func (s *Suite) RunCore() error {
	if s.W == nil {
		return fmt.Errorf("bench: no output writer")
	}
	start := time.Now()
	tables, report, err := s.Core()
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Fprint(s.W)
	}
	if s.OutDir != "" {
		if err := os.MkdirAll(s.OutDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(s.OutDir, "BENCH_core.json")
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(s.W, "artifact: %s\n", path)
	}
	fmt.Fprintf(s.W, "[core done in %v]\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}
