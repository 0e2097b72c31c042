package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	dccs "repro"
	"repro/internal/datasets"
	"repro/internal/multilayer"
)

// query is one DCCS query of a workload's stream.
type query struct {
	D, S, K int
	Seed    int64
}

func (q query) key() string { return fmt.Sprintf("d%d|s%d|k%d|x%d", q.D, q.S, q.K, q.Seed) }

func (q query) options() dccs.Options { return dccs.Options{D: q.D, S: q.S, K: q.K, Seed: q.Seed} }

func (q query) engineQuery() dccs.Query { return dccs.Query{D: q.D, S: q.S, K: q.K, Seed: q.Seed} }

// mix is splitmix64's finalizer: it turns (seed, index) into an
// independent-looking 64-bit value, so the i-th query of a stream can be
// computed without generating the ones before it.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// queryAt returns the i-th query of the workload's stream. Classes cycle
// through the (d, s) grid, so every class is equally represented in any
// window, and each query carries its own seed, so no two are equal.
func queryAt(w workloadSpec, seed int64, i int) query {
	c := i % (len(w.Ds) * len(w.Ss))
	return query{
		D: w.Ds[c/len(w.Ss)], S: w.Ss[c%len(w.Ss)], K: w.K,
		Seed: int64(mix(uint64(seed)^mix(uint64(i))) >> 11),
	}
}

// graphInfo records the generated input.
type graphInfo struct {
	N, Layers, Edges int
	Bytes            int64
}

// writeGraph streams the workload's graph into dir as a .mlgb file; the
// program under test only ever sees that file.
func writeGraph(dir string, w workloadSpec) (string, graphInfo, error) {
	path := filepath.Join(dir, w.Name+".mlgb")
	f, err := os.Create(path)
	if err != nil {
		return "", graphInfo{}, err
	}
	bw := bufio.NewWriter(f)
	res, err := datasets.Stream(datasets.Config{
		Name: w.Name, N: w.N, Layers: w.Layers, Seed: w.GraphSeed,
		AvgDegree: 2.2, Gamma: 2.3, Correlation: 0.5,
		Communities: w.N / 500, MinSize: 12, MaxSize: 30,
		MinSupport: 3, MaxSupport: 6, PIn: 0.6,
		Persistent: 4, CrossLayerNoise: 0.05,
	}, bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", graphInfo{}, fmt.Errorf("generate %s: %w", path, err)
	}
	g, err := multilayer.ReadBinaryFile(path)
	if err != nil {
		return "", graphInfo{}, err
	}
	return path, graphInfo{N: res.N, Layers: res.Layers, Edges: g.MTotal(), Bytes: res.Stats.EncodedBytes}, nil
}

type opKind int

const (
	kindSearch opKind = iota
	kindBatch
	kindUpdate
)

func (k opKind) String() string {
	return [...]string{"search", "batch", "update"}[k]
}

// op is one request of a window.
type op struct {
	kind    opKind
	at      time.Duration // due offset from the window start (open loops)
	queries []query
	updates []dccs.EdgeUpdate
}

// traffic produces a run's requests from the seed. Windows continue one
// stream, so a traced window never repeats the untraced window's
// distinct queries or update batches.
type traffic struct {
	w    workloadSpec
	seed int64

	mu     sync.Mutex // guards nextQ and nextOp while closed-loop callers draw
	nextQ  int        // next index into the distinct query stream
	nextOp int        // closed loop: requests handed out so far

	rng      *rand.Rand
	zipf     *rand.Zipf
	edgeRNG  *rand.Rand
	g0       *multilayer.Graph // initial graph: inserts are edges it lacks
	inserted []dccs.EdgeUpdate // last insert batch, deleted by the next batch
	batches  int
}

func newTraffic(w workloadSpec, seed int64, g0 *multilayer.Graph) *traffic {
	t := &traffic{
		w: w, seed: seed, g0: g0,
		rng:     rand.New(rand.NewSource(seed ^ 0x5eed)),
		edgeRNG: rand.New(rand.NewSource(seed ^ 0xed6e)),
	}
	if w.Universe > 0 {
		t.zipf = rand.NewZipf(t.rng, w.ZipfS, w.ZipfV, uint64(w.Universe-1))
	}
	return t
}

// distinct returns the next n queries of the distinct stream.
func (t *traffic) distinct(n int) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = queryAt(t.w, t.seed, t.nextQ)
		t.nextQ++
	}
	return qs
}

// drawn returns n queries drawn Zipf-skewed from the universe.
func (t *traffic) drawn(n int) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = queryAt(t.w, t.seed, int(t.zipf.Uint64()))
	}
	return qs
}

// next hands out the closed loop's next request: every BatchEvery-th is
// a batch, the rest single searches, all of distinct queries.
func (t *traffic) next() *op {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	if t.w.BatchEvery > 0 && t.nextOp%t.w.BatchEvery == 0 {
		return &op{kind: kindBatch, queries: t.distinct(t.w.BatchSize)}
	}
	return &op{kind: kindSearch, queries: t.distinct(1)}
}

// closedNext returns what a closed loop's callers draw their requests
// from: skewed traffic from the Zipf, other traffic from the distinct
// stream.
func (t *traffic) closedNext() func() *op {
	if t.zipf != nil {
		return t.nextDrawn
	}
	return t.next
}

// nextDrawn hands out a request of skewed traffic for a closed loop: a
// batch with probability BatchShare, else a single search, its queries
// drawn Zipf-skewed from the universe.
func (t *traffic) nextDrawn() *op {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rng.Float64() < t.w.BatchShare {
		return &op{kind: kindBatch, queries: t.drawn(t.w.BatchSize)}
	}
	return &op{kind: kindSearch, queries: t.drawn(1)}
}

// warmup returns the untimed searches that fill the result cache before
// a skewed window: the CacheEntries most popular queries, least popular
// first, so the cache starts where the window's traffic keeps it.
func (t *traffic) warmup() []*op {
	if t.zipf == nil {
		return nil
	}
	ops := make([]*op, t.w.CacheEntries)
	for i := range ops {
		ops[i] = &op{kind: kindSearch, queries: []query{queryAt(t.w, t.seed, len(ops)-1-i)}}
	}
	return ops
}

// schedule returns an open-loop window of the given length: rate×window
// searches (a BatchShare of them batches) at seeded uniform times — a
// Poisson process conditioned on its count, so every window offers the
// same load — and the updates, merged in due order.
func (t *traffic) schedule(window time.Duration) []*op {
	n := int(t.w.Rate * window.Seconds())
	batches := int(float64(n)*t.w.BatchShare + 0.5)
	var ops []*op
	for _, isBatch := range t.rng.Perm(n) {
		o := &op{kind: kindSearch, at: t.at(window)}
		size := 1
		if isBatch < batches {
			o.kind, size = kindBatch, t.w.BatchSize
		}
		if t.zipf != nil {
			o.queries = t.drawn(size)
		} else {
			o.queries = t.distinct(size)
		}
		ops = append(ops, o)
	}
	// Updates arrive every 1/UpdateRate from a seeded phase: a writer
	// that batches on a timer. Evenly spaced batches do not queue behind
	// each other, so update latency measures the write path, not the
	// luck of the arrival draw; each delete is due after the insert it
	// undoes.
	if t.w.UpdateRate > 0 {
		every := time.Duration(float64(time.Second) / t.w.UpdateRate)
		for at := time.Duration(t.rng.Int63n(int64(every))); at < window; at += every {
			ops = append(ops, &op{kind: kindUpdate, at: at, updates: t.updateBatch()})
		}
	}
	sortByDue(ops)
	return ops
}

func (t *traffic) at(window time.Duration) time.Duration {
	return time.Duration(t.rng.Int63n(int64(window)))
}

// updateBatch returns the next edge batch: even batches insert
// UpdateEdges distinct edges the initial graph lacks, odd batches delete
// exactly the edges the batch before inserted, so the graph stays the
// size it was generated at however long the run.
func (t *traffic) updateBatch() []dccs.EdgeUpdate {
	t.batches++
	if t.batches%2 == 0 {
		ups := make([]dccs.EdgeUpdate, len(t.inserted))
		for i, e := range t.inserted {
			ups[i] = dccs.EdgeUpdate{Op: dccs.EdgeDelete, Layer: e.Layer, U: e.U, V: e.V}
		}
		return ups
	}
	n, l := t.g0.N(), t.g0.L()
	seen := map[[3]int]bool{}
	ups := make([]dccs.EdgeUpdate, 0, t.w.UpdateEdges)
	for len(ups) < max(1, t.w.UpdateEdges) {
		layer, u, v := t.edgeRNG.Intn(l), t.edgeRNG.Intn(n), t.edgeRNG.Intn(n)
		if u == v || t.g0.HasEdge(layer, u, v) {
			continue
		}
		u, v = min(u, v), max(u, v)
		if seen[[3]int{layer, u, v}] {
			continue
		}
		seen[[3]int{layer, u, v}] = true
		ups = append(ups, dccs.EdgeUpdate{Op: dccs.EdgeInsert, Layer: layer, U: u, V: v})
	}
	t.inserted = ups
	return ups
}

// probeBatches is how many update batches the write-path probe of an
// immutable workload replays.
const probeBatches = 10

// plan is a run's pre-drawn requests. Everything that needs the initial
// graph is drawn before set-up, so the benchmark's own copy of the graph
// is gone by the time the run measures the heap.
type plan struct {
	warm    []*op
	windows [2][]*op // open loops: the untraced and the traced window
	checks  []*op    // live graphs: queries sent after the last update
	probe   [][]dccs.EdgeUpdate
}

// plan draws the run's requests and then drops the initial graph.
// Closed loops draw theirs from next as they go.
func (t *traffic) plan(window time.Duration, traced bool) *plan {
	p := &plan{warm: t.warmup()}
	if t.w.Loop == "open" {
		p.windows[0] = t.schedule(window)
		if traced {
			p.windows[1] = t.schedule(window)
		}
	}
	if t.w.Mutable {
		for _, q := range t.distinct(2 * len(t.w.Ds) * len(t.w.Ss)) {
			p.checks = append(p.checks, &op{kind: kindSearch, queries: []query{q}})
		}
	} else if traced {
		// The write-path probe of a workload that sends no updates; its
		// UpdateEdges is the mutable workload's (benchSpec.workload).
		for i := 0; i < probeBatches; i++ {
			p.probe = append(p.probe, t.updateBatch())
		}
	}
	t.g0 = nil
	return p
}
