package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/multilayer"
)

// capacity measures what the open-loop rates in spec.json are derived
// from: how many requests per second the stack completes when
// GOMAXPROCS callers send the workload's searches back to back, and, on
// a mutable workload, how many update batches per second one writer
// gets applied. It prints the figures; it checks no answers.
func capacity(w workloadSpec, seed int64, window time.Duration, workdir string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, w.Name+"-capacity-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path, _, err := writeGraph(dir, w)
	if err != nil {
		return err
	}
	g0, err := multilayer.ReadBinaryFile(path)
	if err != nil {
		return err
	}
	t := newTraffic(w, seed, g0)
	st, err := startStack(w, path)
	if err != nil {
		return err
	}
	defer st.close()
	d := &loadgen{st: st}
	d.all(t.warmup(), 2)

	next := t.closedNext()
	clients := runtime.GOMAXPROCS(0)
	report := func(what string, callers int, outs []*outcome) {
		reqs, queries, failed := 0, 0, 0
		first, last := time.Time{}, time.Time{}
		for _, o := range outs {
			if first.IsZero() || o.due.Before(first) {
				first = o.due
			}
			last = maxTime(last, o.done)
			if o.failed() {
				failed++
				continue
			}
			reqs++
			queries += max(len(o.answers), 1)
		}
		secs := last.Sub(first).Seconds()
		fmt.Printf("%s capacity, %d callers: %.1f requests/s, %.1f queries/s, %d failed\n", what, callers, float64(reqs)/secs, float64(queries)/secs, failed)
	}
	report(w.Name+" search", clients, d.closedLoop(clients, window, next, false))
	if w.Mutable {
		update := func() *op { return &op{kind: kindUpdate, updates: t.updateBatch()} }
		report(w.Name+" update", 1, d.closedLoop(1, window, update, false))
	}
	return nil
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}
