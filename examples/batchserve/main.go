// Batch serving: many queries, one sweep, one request.
//
// A recommendation dashboard rarely asks one question at a time — it
// wants the coherent-core landscape of a graph across a whole range of
// density thresholds at once. Issued as 16 separate POST /v1/search
// calls against a cold replica, each request repays the d-independent
// preprocessing (per-layer coreness) and builds its
// hierarchy level alone. POST /v1/search/batch instead canonicalizes
// the whole set, answers duplicates once, warms every distinct d with a
// single shared hierarchy sweep, and only then fans the remaining
// misses out over the engine.
//
// This example starts the HTTP server in-process on a random synthetic
// graph, then contrasts three rounds:
//
//  1. a batch of 16 queries at d=1..16 (one shared sweep),
//  2. the same batch again (pure cache hits),
//  3. a batch with duplicates and an invalid query (per-item status).
//
// It also saves the graph as .mlgb and reopens it with the zero-copy
// mapped loader that `dccs-serve -mmap` uses.
//
// Run with:
//
//	go run ./examples/batchserve
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	dccs "repro"
	"repro/internal/server"
	"repro/internal/testutil"
)

const queries = 16

func main() {
	rng := rand.New(rand.NewSource(7))
	g := testutil.RandomCorrelatedGraph(rng, 1500, 4, 0.015, 0.85, 0.05)
	st := g.Stats()
	fmt.Printf("graph: %d vertices, %d layers, %d edges\n\n", st.N, st.Layers, st.TotalEdges)

	s, err := server.New(server.Config{}, server.GraphSpec{Name: "demo", Graph: g})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown(context.Background())

	// Round 1: 16 distinct thresholds in one request. The server warms
	// every d with one shared hierarchy pass before running any query,
	// so the whole batch costs roughly one preprocessing plus 16 cheap
	// searches — not 16 full preprocessings.
	req := server.BatchRequest{Graph: "demo"}
	for d := 1; d <= queries; d++ {
		req.Queries = append(req.Queries, server.BatchQuery{D: d, S: st.Layers, K: 1})
	}
	start := time.Now()
	resp := postBatch(ts.URL, req)
	fmt.Printf("cold batch of %d: %d engine runs, warmed d's %v, %.1fms\n",
		queries, resp.EngineRuns, resp.WarmedDs, float64(time.Since(start).Microseconds())/1000)

	// Round 2: the identical batch is answered without touching the
	// engine at all.
	start = time.Now()
	resp = postBatch(ts.URL, req)
	fmt.Printf("warm batch of %d: %d cache hits, %d engine runs, %.1fms\n\n",
		queries, resp.CacheHits, resp.EngineRuns, float64(time.Since(start).Microseconds())/1000)

	// Round 3: items succeed or fail independently. The duplicate is
	// answered once and shared; the invalid d reports its own error
	// without sinking the rest of the batch.
	mixed := server.BatchRequest{Graph: "demo", Queries: []server.BatchQuery{
		{D: 2, S: st.Layers, K: 2},
		{D: 2, S: st.Layers, K: 2}, // in-batch duplicate of the first
		{D: 0, S: st.Layers, K: 2}, // invalid: d must be >= 1
	}}
	resp = postBatch(ts.URL, mixed)
	for _, item := range resp.Items {
		if item.Error != "" {
			fmt.Printf("item %d: error %q\n", item.Index, item.Error)
			continue
		}
		fmt.Printf("item %d: source %-6s cover %d\n", item.Index, item.Source, item.CoverSize)
	}

	// The mapped loader: write the graph once as .mlgb, then reopen it
	// without copying the CSR arrays onto the heap — the same path
	// `dccs-serve -mmap graphs/*.mlgb` takes at startup.
	dir, err := os.MkdirTemp("", "batchserve")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "demo.mlgb")
	if err := g.WriteBinaryFile(path); err != nil {
		log.Fatal(err)
	}
	mg, err := dccs.OpenMappedGraphFile(path)
	if err != nil {
		log.Fatal(err)
	}
	defer mg.Close()
	fmt.Printf("\nmapped %s: zero-copy=%v, equal to heap graph=%v\n",
		filepath.Base(path), mg.ZeroCopy(), mg.Equal(g))
}

func postBatch(url string, req server.BatchRequest) server.BatchResponse {
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/search/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("batch status %d", resp.StatusCode)
	}
	var br server.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		log.Fatal(err)
	}
	return br
}
