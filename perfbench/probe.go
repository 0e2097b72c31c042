package main

import (
	"context"
	"os"
	"runtime"
	"slices"
	"time"

	dccs "repro"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/kcore"
	"repro/internal/live"
	"repro/internal/multilayer"
)

// probeQueries is how many queries of the workload's stream the core
// and kcore probes run: a fixed set, so their Stats counts repeat
// exactly for a seed.
const probeQueries = 36

// probes times each lower layer's exported functions directly on the
// workload's graph file and adds the per-layer metrics to m.
func probes(w workloadSpec, path string, seed int64, m *metrics) error {
	ctx := context.Background()
	workers := dccs.Options{}.MaterializeWorkers()

	// internal/multilayer: the three ways the file becomes a graph.
	m.add("multilayer.open_ms", timeIt(5, func() {
		if mg, err := multilayer.OpenMapped(path); err == nil {
			mg.Close()
		}
	}), "ms", 5)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var g *multilayer.Graph
	m.add("multilayer.decode_ms", timeIt(5, func() { g, err = multilayer.DecodeBinary(data) }), "ms", 5)
	if err != nil {
		return err
	}
	m.add("multilayer.fingerprint_ms", timeIt(5, func() { _ = g.Fingerprint() }), "ms", 5)

	// internal/kcore: per-layer coreness and the shared per-d sweep.
	var corenessMS []float64
	coreness := make([][]int, g.L())
	for rep := 0; rep < 3; rep++ {
		for i := range coreness {
			start := time.Now()
			coreness[i] = kcore.Coreness(g, i, nil)
			corenessMS = append(corenessMS, ms(time.Since(start)))
		}
	}
	m.add("kcore.coreness_ms", percentile(corenessMS, 50), "ms", len(corenessMS))
	ds := slices.Sorted(slices.Values(w.Ds))
	m.add("kcore.sweep_ms", timeIt(3, func() {
		sw := kcore.NewSweep(g, coreness, workers)
		for _, d := range ds {
			sw.TrackerAt(d)
		}
	}), "ms", 3)

	// internal/core artifacts: time and heap of PrepareDs on a fresh handle.
	m.add("core.prepare_ms", timeIt(3, func() {
		err = core.NewPrepared(g, workers).PrepareDs(ctx, w.Ds...)
	}), "ms", 3)
	if err != nil {
		return err
	}
	before := heapMiB()
	pr := core.NewPrepared(g, workers)
	if err := pr.PrepareDs(ctx, w.Ds...); err != nil {
		return err
	}
	m.add("core.artifact_heap_mb", heapMiB()-before, "MiB", 1)

	// internal/core search and kcore.DCC on a fixed query set.
	var buMS, tdMS, dccUS []float64
	var st core.Stats
	full := bitset.NewFull(g.N())
	for i := 0; i < probeQueries; i++ {
		q := queryAt(w, seed, i)
		start := time.Now()
		res, err := coreSearch(pr, g.L(), q)
		if err != nil {
			return err
		}
		if res.Stats.Algorithm == core.AlgoNameTD {
			tdMS = append(tdMS, ms(time.Since(start)))
		} else {
			buMS = append(buMS, ms(time.Since(start)))
		}
		st.TreeNodes += res.Stats.TreeNodes
		st.DCCCalls += res.Stats.DCCCalls
		st.Candidates += res.Stats.Candidates
		st.Pruned += res.Stats.Pruned
		st.PreprocessRemoved += res.Stats.PreprocessRemoved
		st.Updates += res.Stats.Updates
		for _, c := range res.Cores {
			start := time.Now()
			kcore.DCC(g, full, c.Layers, q.D)
			dccUS = append(dccUS, us(time.Since(start)))
		}
	}
	runtime.KeepAlive(pr)
	m.add("core.bu_ms_p50", percentile(buMS, 50), "ms", len(buMS))
	m.add("core.td_ms_p50", percentile(tdMS, 50), "ms", len(tdMS))
	m.add("core.tree_nodes", float64(st.TreeNodes), "count", probeQueries)
	m.add("core.dcc_calls", float64(st.DCCCalls), "count", probeQueries)
	m.add("core.candidates", float64(st.Candidates), "count", probeQueries)
	m.add("core.pruned", float64(st.Pruned), "count", probeQueries)
	m.add("core.preprocess_removed", float64(st.PreprocessRemoved), "count", probeQueries)
	m.add("core.accept_ratio", ratio(float64(st.Updates), float64(st.Candidates)), "ratio", probeQueries)
	m.add("kcore.dcc_us_p50", percentile(dccUS, 50), "us", len(dccUS))
	return nil
}

// liveProbe times the write path of a workload that sends no updates:
// seeded probe batches applied step by step to a live replica of its
// graph, the way the live-mixed replica replays its acknowledged ones.
func liveProbe(w workloadSpec, path string, batches [][]dccs.EdgeUpdate) (*replica, error) {
	g, err := dccs.ReadGraphFile(path)
	if err != nil {
		return nil, err
	}
	pr := core.NewPrepared(g, dccs.Options{}.MaterializeWorkers())
	if err := pr.PrepareDs(context.Background(), w.Ds...); err != nil {
		return nil, err
	}
	r := &replica{w: w, pr: pr, store: live.NewStore(g)}
	for i, ups := range batches {
		if _, err := r.liveSteps(ups, uint64(i+1)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// heapMiB returns the heap in use after a full collection.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}
