// Command perfbench is the repository's benchmark. For one named
// workload it generates the inputs from a seed (a planted-community
// graph streamed into a .mlgb file, and the request schedule), serves
// the file through the real stack — internal/server over loopback HTTP,
// the dccs Engine, internal/core artifacts and search, internal/kcore
// peels, internal/live for writes — checks every answer, and prints its
// metrics: one line per metric with unit and sample count, then one JSON
// object as the last line of standard output.
//
// Its bounded timings are scaled to a reference host by a kernel of the
// benchmark's own, timed in the same seconds of the run (hostref.go);
// the figures as measured are printed beside them.
//
// With -trace 0 the JSON carries the end-to-end metrics BENCHMARK.json
// names. With -trace 1 the window is split into an untraced and a traced
// half, and the JSON carries the per-layer metrics instead. A failed
// correctness check makes the command exit with status 2.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload search-miss --seed 1 --seconds 10 --trace 0
//
// With -capacity it instead measures the closed-loop capacity that the
// open-loop rates in spec.json are derived from:
//
//	bash perfbench/run.sh --workload search-hot --seconds 10 --capacity
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: search-miss, search-hot or live-mixed")
	seed := flag.Int64("seed", 1, "seed for the graph and the requests")
	seconds := flag.Int("seconds", 10, "length of a measured window in seconds")
	trace := flag.Int("trace", 0, "1 traces the second half of the window and prints per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for the generated inputs and the span file")
	capacityRun := flag.Bool("capacity", false, "measure the workload's closed-loop capacity, which spec.json's rates derive from, instead of running it")
	flag.Parse()

	if *capacityRun {
		if err := capacityErr(*workload, *seed, *seconds, *workdir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	if err := mainErr(*workload, *seed, *seconds, *trace, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func capacityErr(workload string, seed int64, seconds int, workdir string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	w, err := spec.workload(workload)
	if err != nil {
		return err
	}
	return capacity(w, seed, time.Duration(seconds)*time.Second, workdir)
}

func mainErr(workload string, seed int64, seconds, trace int, workdir string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	w, err := spec.workload(workload)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want -seconds ≥ 1 and -trace 0 or 1, got %d and %d", seconds, trace)
	}
	rep, err := run(runOptions{w: w, seed: seed, window: time.Duration(seconds) * time.Second, trace: trace == 1, workdir: workdir})
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d: n=%d layers=%d edges=%d bytes=%d\n", w.Name, seed, rep.info.N, rep.info.Layers, rep.info.Edges, rep.info.Bytes)
	for _, m := range append(rep.m.list, rep.extra.list...) {
		fmt.Printf("%-36s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	if rep.trace != "" {
		fmt.Println("spans written to", rep.trace)
	}
	for _, p := range rep.problems {
		fmt.Println("problem:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]value{}}
	for _, m := range rep.m.list {
		out.Metrics[m.name] = value{jsonValue(m.value), m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.correct {
		os.Exit(2)
	}
	return nil
}
