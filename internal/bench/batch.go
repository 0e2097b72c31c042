package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/multilayer"
	"repro/internal/server"
)

// batchBenchReport is the BENCH_batch.json artifact. It measures the
// two scale-out serving paths this repo ships:
//
//   - batch amortization: one POST /v1/search/batch carrying N
//     single-d queries with distinct thresholds versus the same N
//     queries issued as sequential cold POST /v1/search requests.
//     The batch endpoint warms all N thresholds in one shared
//     hierarchy sweep (the d-cores are nested level sets), so it pays
//     roughly one peel instead of N.
//   - mapped open: OpenMapped (zero-copy mmap, O(n) eager validation)
//     versus ReadBinaryFile (heap decode, full O(m) validation) on the
//     same .mlgb image.
//
// Field-name conventions follow benchdiff: *_ms fields are latencies
// (lower is better), *_speedup fields are ratios (higher is better).
type batchBenchReport struct {
	N          int `json:"n"`
	Layers     int `json:"layers"`
	TotalEdges int `json:"total_edges"`

	Queries      int     `json:"queries"`
	SequentialMS float64 `json:"sequential_ms"`
	BatchMS      float64 `json:"batch_ms"`
	BatchSpeedup float64 `json:"batch_speedup"`
	EngineRuns   int     `json:"engine_runs"`
	WarmedDs     int     `json:"warmed_ds"`
	ResultsMatch bool    `json:"results_match"`

	FileBytes         int64   `json:"file_bytes"`
	HeapOpenMS        float64 `json:"heap_open_ms"`
	MappedOpenMS      float64 `json:"mapped_open_ms"`
	MappedOpenSpeedup float64 `json:"mapped_open_speedup"`
	MappedZeroCopy    bool    `json:"mapped_zero_copy"`
}

// denseGraph builds a multi-layer Erdős–Rényi-style graph dense enough
// that every degree threshold the bench queries (d = 1 … queries) has a
// non-trivial d-core in every layer: with average degree ≈ deg the max
// coreness is well above deg/2, so none of the thresholds canonicalize
// to the trivial beyond-max sentinel and every query costs a real
// hierarchy build.
func denseGraph(n, layers, deg int, seed int64) *multilayer.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := multilayer.NewBuilder(n, layers)
	perVertex := deg / 2
	for l := 0; l < layers; l++ {
		for u := 0; u < n; u++ {
			for e := 0; e < perVertex; e++ {
				b.MustAddEdge(l, u, rng.Intn(n))
			}
		}
	}
	return b.Build()
}

// batchItemKey is the part of a search answer that must be identical
// between the batch and sequential paths: what the core cover is, not
// how long it took.
type batchItemKey struct {
	CoverSize int               `json:"cover_size"`
	Cores     []json.RawMessage `json:"cores"`
}

func postJSON(client *http.Client, url string, body any, out any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("bench: batch: decode %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: batch: %s: HTTP %d", url, resp.StatusCode)
	}
	return nil
}

// Batch runs the batch-amortization and mapped-open benchmarks. Both
// serving comparisons run on fresh in-process servers (httptest
// loopback — real parsing, admission, cache, JSON encode) so neither
// side inherits the other's warmed artifacts.
func (s *Suite) Batch() ([]*Table, *batchBenchReport, error) {
	n, layers, deg := 4000, 6, 48
	if s.Quick {
		n, deg = 2500, 44
	}
	const queries = 16
	g := denseGraph(n, layers, deg, s.Seed)
	st := g.Stats()
	report := &batchBenchReport{N: st.N, Layers: st.Layers, TotalEdges: st.TotalEdges, Queries: queries}

	type q struct {
		D    int   `json:"d"`
		S    int   `json:"s"`
		K    int   `json:"k"`
		Seed int64 `json:"seed"`
	}
	// s = layers keeps the per-query search small (one layer subset), so
	// the comparison isolates what the batch path amortizes: the shared
	// preprocessing artifacts.
	qs := make([]q, queries)
	for i := range qs {
		qs[i] = q{D: i + 1, S: layers, K: 1, Seed: int64(i + 1)}
	}

	// Sequential baseline: N cold single queries, each against a fresh
	// replica — "cold" in this repo's bench vocabulary (BENCH_engine,
	// BENCH_core) means a handle with no cached artifacts, so every
	// request repays the d-independent preprocessing (per-layer coreness)
	// plus its own per-d hierarchy build. This is the
	// fan-out a client doing N one-off queries against a replica set
	// pays; the batch path below answers the same N queries on one cold
	// replica with one shared sweep.
	seqItems := make([]batchItemKey, queries)
	seqStart := time.Now()
	for i, query := range qs {
		seqSrv, err := server.New(server.Config{}, server.GraphSpec{Name: "bench", Graph: g})
		if err != nil {
			return nil, nil, err
		}
		seqTS := httptest.NewServer(seqSrv.Handler())
		var out struct {
			batchItemKey
			Source string `json:"source"`
			Error  string `json:"error"`
		}
		err = postJSON(seqTS.Client(), seqTS.URL+"/v1/search", query, &out)
		seqTS.Close()
		if err != nil {
			return nil, nil, err
		}
		if out.Error != "" || out.Source != "engine" {
			return nil, nil, fmt.Errorf("bench: batch: sequential d=%d: source=%q error=%q, want a cold engine run", query.D, out.Source, out.Error)
		}
		seqItems[i] = out.batchItemKey
	}
	report.SequentialMS = float64(time.Since(seqStart)) / float64(time.Millisecond)

	// Batch path: the same N queries in one POST /v1/search/batch on a
	// fresh server — one shared sweep warms all N thresholds.
	batSrv, err := server.New(server.Config{}, server.GraphSpec{Name: "bench", Graph: g})
	if err != nil {
		return nil, nil, err
	}
	batTS := httptest.NewServer(batSrv.Handler())
	defer batTS.Close()
	var bout struct {
		Items []struct {
			batchItemKey
			Index  int    `json:"index"`
			Source string `json:"source"`
			Error  string `json:"error"`
		} `json:"items"`
		EngineRuns int   `json:"engine_runs"`
		WarmedDs   []int `json:"warmed_ds"`
		Errors     int   `json:"errors"`
	}
	batStart := time.Now()
	if err := postJSON(batTS.Client(), batTS.URL+"/v1/search/batch",
		map[string]any{"queries": qs}, &bout); err != nil {
		return nil, nil, err
	}
	report.BatchMS = float64(time.Since(batStart)) / float64(time.Millisecond)
	report.EngineRuns = bout.EngineRuns
	report.WarmedDs = len(bout.WarmedDs)
	if bout.Errors != 0 || len(bout.Items) != queries {
		return nil, nil, fmt.Errorf("bench: batch: %d items, %d errors, want %d items and none", len(bout.Items), bout.Errors, queries)
	}
	if bout.EngineRuns != queries {
		return nil, nil, fmt.Errorf("bench: batch: %d engine runs, want %d (graph too sparse for distinct d thresholds?)", bout.EngineRuns, queries)
	}

	report.ResultsMatch = true
	for i := range bout.Items {
		a, _ := json.Marshal(seqItems[i])
		b, _ := json.Marshal(bout.Items[i].batchItemKey)
		if !bytes.Equal(a, b) {
			report.ResultsMatch = false
			return nil, nil, fmt.Errorf("bench: batch: item %d (d=%d) differs between batch and sequential paths", i, qs[i].D)
		}
	}
	if report.BatchMS > 0 {
		report.BatchSpeedup = report.SequentialMS / report.BatchMS
	}

	// Mapped-open comparison on the same graph's binary image: heap
	// decode (full validation + copy) versus mmap open (O(n) eager
	// validation, zero copy). Best-of-reps isolates the open cost from
	// scheduler noise.
	dir, err := os.MkdirTemp("", "dccs-bench-batch")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.mlgb")
	if err := g.WriteBinaryFile(path); err != nil {
		return nil, nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	report.FileBytes = fi.Size()

	const reps = 7
	heapBest := time.Duration(1<<62 - 1)
	wantFP := g.Fingerprint()
	for r := 0; r < reps; r++ {
		start := time.Now()
		hg, err := multilayer.ReadBinaryFile(path)
		elapsed := time.Since(start)
		if err != nil {
			return nil, nil, err
		}
		if hg.Fingerprint() != wantFP {
			return nil, nil, fmt.Errorf("bench: batch: heap decode fingerprint mismatch")
		}
		heapBest = min(heapBest, elapsed)
	}
	mappedBest := time.Duration(1<<62 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		mg, err := multilayer.OpenMapped(path)
		elapsed := time.Since(start)
		if err != nil {
			return nil, nil, err
		}
		report.MappedZeroCopy = mg.ZeroCopy()
		if r == 0 && mg.Fingerprint() != wantFP {
			mg.Close()
			return nil, nil, fmt.Errorf("bench: batch: mapped open fingerprint mismatch")
		}
		if err := mg.Close(); err != nil {
			return nil, nil, err
		}
		mappedBest = min(mappedBest, elapsed)
	}
	report.HeapOpenMS = float64(heapBest) / float64(time.Millisecond)
	report.MappedOpenMS = float64(mappedBest) / float64(time.Millisecond)
	if report.MappedOpenMS > 0 {
		report.MappedOpenSpeedup = report.HeapOpenMS / report.MappedOpenMS
	}

	t := &Table{
		Title:  "Batch: one shared-sweep batch vs sequential cold queries; mmap vs heap open",
		Header: []string{"path", "total ms", "speedup"},
		Notes: []string{
			fmt.Sprintf("benchmark graph: n=%d l=%d Σ|E|=%d; %d single-d queries, d=1…%d",
				st.N, st.Layers, st.TotalEdges, queries, queries),
			"sequential cold = fresh replica per request (no cached artifacts), as in BENCH_core's cold-independent path",
			fmt.Sprintf("batch warmed %d thresholds in one sweep; %d engine runs; results match sequential: %v",
				report.WarmedDs, report.EngineRuns, report.ResultsMatch),
			fmt.Sprintf("mapped open: %d-byte .mlgb, zero-copy=%v, best of %d reps",
				report.FileBytes, report.MappedZeroCopy, reps),
		},
	}
	t.Add("sequential 16x /v1/search", fmt.Sprintf("%.1f", report.SequentialMS), "1.0x")
	t.Add("one /v1/search/batch", fmt.Sprintf("%.1f", report.BatchMS), fmt.Sprintf("%.1fx", report.BatchSpeedup))
	t.Add("heap decode .mlgb", fmt.Sprintf("%.2f", report.HeapOpenMS), "1.0x")
	t.Add("mmap open .mlgb", fmt.Sprintf("%.2f", report.MappedOpenMS), fmt.Sprintf("%.1fx", report.MappedOpenSpeedup))
	return []*Table{t}, report, nil
}

// RunBatch executes the batch benchmark, prints its table, and — when
// OutDir is set — writes the BENCH_batch.json artifact.
func (s *Suite) RunBatch() error {
	if s.W == nil {
		return fmt.Errorf("bench: no output writer")
	}
	start := time.Now()
	tables, report, err := s.Batch()
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
		path := filepath.Join(s.OutDir, "BENCH_batch.json")
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(s.W, "artifact: %s\n", path)
	}
	fmt.Fprintf(s.W, "[batch done in %v]\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}
