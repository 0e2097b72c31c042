package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	dccs "repro"
	"repro/internal/server"
)

// answer is the server's answer to one query.
type answer struct {
	q         query
	source    string
	cover     int
	cores     []server.SearchCC
	truncated bool
	err       string
	full      bool // cores were decoded: the first answer seen for q
}

// outcome is what one request did.
type outcome struct {
	id                int
	op                *op
	due, sent, done   time.Time
	code              int
	err               string
	bytes             int
	answers           []answer
	update            *server.UpdateResponse
	verSeen           uint64 // highest update version acknowledged before the request was sent
	failedCorrectness bool
}

// latency is timed from when the request was due, so a stall of the
// process, which the generator shares with the server, counts against
// the requests it delays. How late the generator sent them is reported
// apart, as bench.late_ms_p99.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// failed reports whether the operation failed, was refused, came back
// truncated or failed a correctness check.
func (o *outcome) failed() bool {
	if o.err != "" || o.code != http.StatusOK || o.failedCorrectness {
		return true
	}
	for _, a := range o.answers {
		if a.err != "" || a.truncated {
			return true
		}
	}
	return false
}

// firstError describes why a failed operation failed.
func (o *outcome) firstError() string {
	switch {
	case o.err != "":
		return o.err
	case o.failedCorrectness:
		return "answer failed the correctness check"
	}
	for _, a := range o.answers {
		if a.err != "" {
			return a.err
		}
		if a.truncated {
			return a.q.key() + " answer truncated"
		}
	}
	return fmt.Sprintf("HTTP %d", o.code)
}

// loadgen sends a run's requests and collects their outcomes.
type loadgen struct {
	st     *stack
	nextID atomic.Int64
	maxVer atomic.Uint64 // highest update version acknowledged so far

	// seen holds the keys of queries whose full answer was decoded. Later
	// answers to them skip the cores: responses run to hundreds of KB,
	// and decoding each in full would load the machine the server runs on.
	seen sync.Map
}

// The light shapes of the search responses: everything the benchmark
// reads from a repeated answer.
type liteSearch struct {
	Source    string `json:"source"`
	CoverSize int    `json:"cover_size"`
	Truncated bool   `json:"truncated"`
}

type liteBatch struct {
	Items []struct {
		Index     int    `json:"index"`
		Error     string `json:"error"`
		Source    string `json:"source"`
		CoverSize int    `json:"cover_size"`
		Truncated bool   `json:"truncated"`
	} `json:"items"`
}

// needFull reports whether any query of o has no decoded answer yet,
// and claims them.
func (d *loadgen) needFull(o *op) bool {
	need := false
	for _, q := range o.queries {
		if _, loaded := d.seen.LoadOrStore(q.key(), true); !loaded {
			need = true
		}
	}
	return need
}

func (d *loadgen) body(o *op) (string, []byte, error) {
	switch o.kind {
	case kindSearch:
		q := o.queries[0]
		b, err := json.Marshal(server.SearchRequest{D: q.D, S: q.S, K: q.K, Seed: q.Seed})
		return "/v1/search", b, err
	case kindBatch:
		req := server.BatchRequest{Queries: make([]server.BatchQuery, len(o.queries))}
		for i, q := range o.queries {
			req.Queries[i] = server.BatchQuery{D: q.D, S: q.S, K: q.K, Seed: q.Seed}
		}
		b, err := json.Marshal(req)
		return "/v1/search/batch", b, err
	default:
		req := server.UpdateRequest{Updates: make([]server.UpdateEdge, len(o.updates))}
		for i, u := range o.updates {
			opName := "insert"
			if u.Op == dccs.EdgeDelete {
				opName = "delete"
			}
			req.Updates[i] = server.UpdateEdge{Op: opName, Layer: u.Layer, U: u.U, V: u.V}
		}
		b, err := json.Marshal(req)
		return "/v1/graphs/" + graphName + "/edges", b, err
	}
}

// bodyBufs holds response buffers for reuse. Responses run to hundreds
// of KB; reading each into a fresh slice would make the load generator,
// which shares the process with the server, a large source of garbage
// and so of GC work in the server's latencies.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// do sends one request that was due at due. With traced set, the request
// carries its operation id for the server-span wrapper.
func (d *loadgen) do(o *op, due time.Time, traced bool) *outcome {
	out := &outcome{id: int(d.nextID.Add(1)), op: o, due: due, verSeen: d.maxVer.Load()}
	path, body, err := d.body(o)
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.sent = time.Now()
	req, err := http.NewRequest(http.MethodPost, d.st.base+path, bytes.NewReader(body))
	if err != nil {
		out.err = err.Error()
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(opHeader, strconv.Itoa(out.id))
	}
	resp, err := d.st.client.Do(req)
	if err != nil {
		out.done = time.Now()
		out.err = err.Error()
		return out
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	out.done = time.Now()
	data := buf.Bytes()
	out.code, out.bytes = resp.StatusCode, len(data)
	if err != nil {
		out.err = err.Error()
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return out
	}
	if err := d.parse(out, data); err != nil {
		out.err = err.Error()
	}
	return out
}

func (d *loadgen) parse(out *outcome, data []byte) error {
	o := out.op
	full := o.kind != kindUpdate && d.needFull(o)
	switch {
	case o.kind == kindSearch && full:
		var r server.SearchResponse
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		out.answers = []answer{{q: o.queries[0], source: r.Source, cover: r.CoverSize, cores: r.Cores, truncated: r.Truncated, full: true}}
	case o.kind == kindSearch:
		var r liteSearch
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		out.answers = []answer{{q: o.queries[0], source: r.Source, cover: r.CoverSize, truncated: r.Truncated}}
	case o.kind == kindBatch && full:
		var r server.BatchResponse
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		out.answers = make([]answer, len(r.Items))
		for i, it := range r.Items {
			if it.Index < 0 || it.Index >= len(o.queries) || i >= len(o.queries) {
				return fmt.Errorf("batch of %d queries answered with item index %d", len(o.queries), it.Index)
			}
			out.answers[i] = answer{q: o.queries[it.Index], source: it.Source, cover: it.CoverSize, cores: it.Cores, truncated: it.Truncated, err: it.Error, full: true}
		}
	case o.kind == kindBatch:
		var r liteBatch
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		out.answers = make([]answer, len(r.Items))
		for i, it := range r.Items {
			if it.Index < 0 || it.Index >= len(o.queries) || i >= len(o.queries) {
				return fmt.Errorf("batch of %d queries answered with item index %d", len(o.queries), it.Index)
			}
			out.answers[i] = answer{q: o.queries[it.Index], source: it.Source, cover: it.CoverSize, truncated: it.Truncated, err: it.Error}
		}
	default:
		var r server.UpdateResponse
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		out.update = &r
		for {
			cur := d.maxVer.Load()
			if r.Version <= cur || d.maxVer.CompareAndSwap(cur, r.Version) {
				break
			}
		}
	}
	if o.kind != kindUpdate && len(out.answers) != len(o.queries) {
		return fmt.Errorf("%d queries answered with %d items", len(o.queries), len(out.answers))
	}
	return nil
}

// closedLoop runs clients callers for the window; each sends its next
// request as soon as the previous one is answered, so a request is due
// when its caller's previous reply arrived.
func (d *loadgen) closedLoop(clients int, window time.Duration, next func() *op, traced bool) []*outcome {
	start := time.Now()
	var mu sync.Mutex
	var outs []*outcome
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := time.Now()
			for due.Sub(start) < window {
				out := d.do(next(), due, traced)
				mu.Lock()
				outs = append(outs, out)
				mu.Unlock()
				due = time.Now()
			}
		}()
	}
	wg.Wait()
	sortByID(outs)
	return outs
}

// openLoop sends every scheduled request at its due time, whether or not
// earlier ones were answered, and waits for all of them. The schedule's
// offset from is due now.
func (d *loadgen) openLoop(ops []*op, from time.Duration, traced bool) []*outcome {
	start := time.Now()
	outs := make([]*outcome, len(ops))
	var wg sync.WaitGroup
	for i, o := range ops {
		due := start.Add(o.at - from)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = d.do(o, due, traced)
		}()
	}
	wg.Wait()
	sortByID(outs)
	return outs
}

func sortByID(outs []*outcome) {
	slices.SortFunc(outs, func(a, b *outcome) int { return a.id - b.id })
}

func sortByDue(ops []*op) {
	slices.SortStableFunc(ops, func(a, b *op) int { return cmp.Compare(a.at, b.at) })
}
