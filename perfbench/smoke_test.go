package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
	"time"
)

// benchmarkJSON is the part of BENCHMARK.json the smoke test reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestSmoke runs every workload of spec.json briefly on a small graph,
// untraced and traced, and checks that each run is correct, fails
// nothing, and emits exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layered []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layered = append(layered, m.Name)
	}
	slices.Sort(e2e)
	slices.Sort(layered)
	for _, name := range slices.Sorted(maps.Keys(spec.Workloads)) {
		w, err := spec.workload(name)
		if err != nil {
			t.Fatal(err)
		}
		w.N = 1500
		for _, trace := range []bool{false, true} {
			rep, err := run(runOptions{w: w, seed: 3, window: time.Second, trace: trace, workdir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.correct || rep.failed > 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v", w.Name, trace, rep.correct, rep.attempted, rep.failed, rep.problems)
			}
			want := e2e
			if trace {
				want = layered
			}
			var got []string
			for _, m := range rep.m.list {
				got = append(got, m.name)
				if m.value != m.value { // NaN: a metric without samples
					t.Errorf("%s trace=%v: %s has no samples", w.Name, trace, m.name)
				}
				// Replays that take longer than the server span they
				// account for would make span self times add up to more
				// than the request.
				if m.name == "trace.replay_over_server_p50" && m.value > 1 {
					t.Errorf("%s: replayed layer calls take %v of their server span", w.Name, m.value)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: metrics\n%v\nwant\n%v", w.Name, trace, got, want)
			}
		}
	}
}

// TestCapacity runs the capacity measurement that spec.json's rates
// derive from, briefly, on every workload.
func TestCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range slices.Sorted(maps.Keys(spec.Workloads)) {
		w, err := spec.workload(name)
		if err != nil {
			t.Fatal(err)
		}
		w.N = 1500
		if err := capacity(w, 3, 500*time.Millisecond, t.TempDir()); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}
