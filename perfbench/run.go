package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	dccs "repro"
	"repro/internal/multilayer"
	"repro/internal/server"
)

// setups is how many times a run builds the stack; setup_s is their
// median, so one slow page-in or GC does not decide it.
const setups = 15

type runOptions struct {
	w       workloadSpec
	seed    int64
	window  time.Duration
	trace   bool
	workdir string
}

type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

type metrics struct{ list []metric }

func (m *metrics) add(name string, v float64, unit string, n int) {
	m.list = append(m.list, metric{name: name, value: v, unit: unit, n: n})
}

// report is the outcome of one run.
type report struct {
	info      graphInfo
	correct   bool
	attempted int
	failed    int
	problems  []string
	m         metrics // the JSON metrics: end-to-end, or per-layer when traced
	extra     metrics // printed only: tails, per-class latencies and ratios
	trace     string  // span file of the traced window
}

// run performs one benchmark run: generate the inputs, set the stack up,
// drive the workload's window, check every answer, and compute the
// metrics. A traced run splits the window into an untraced and a traced
// half, so it takes about as long as an untraced one.
func run(o runOptions) (*report, error) {
	if o.trace {
		o.window /= 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, o.w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	path, info, err := writeGraph(dir, o.w)
	if err != nil {
		return nil, err
	}
	g0, err := multilayer.ReadBinaryFile(path)
	if err != nil {
		return nil, err
	}
	t := newTraffic(o.w, o.seed, g0)
	pl := t.plan(o.window, o.trace)
	rep := &report{info: info}

	var setupS, setupRef []float64
	var st *stack
	for i := 0; i < setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		if st, err = startStack(o.w, path); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		setupRef = hostRef(refSetupRounds, setupRef)
	}
	heap := heapMiB() - refOnce().heapMiB()
	d := &loadgen{st: st}
	win, err := drive(o, d, t, pl)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// Correctness: the replica replays every acknowledged update and,
	// when tracing, the traced operations' layer calls.
	all := append(append(append([]*outcome(nil), win.warm...), win.outs1...), win.outs2...)
	rp, err := newReplica(o.w, path, win.rec)
	if err != nil {
		return nil, err
	}
	if err := rp.replay(all, win.outs2); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	workers := runtime.GOMAXPROCS(0)
	var bad map[string]string
	if o.w.Mutable {
		all = append(all, win.checks...)
		bad = checkLive(rp, win, workers)
	} else {
		answers, b := distinctAnswers(all)
		for k, v := range checkAnswers(rp.eng.Graph(), rp.eng, answers, rp.results, workers) {
			b[k] = v
		}
		bad = b
	}
	markFailed(all, bad)
	for _, k := range slices.Sorted(maps.Keys(bad)) {
		rep.problems = append(rep.problems, bad[k])
	}
	rep.correct = len(rep.problems) == 0 // request failures below count in failed, not here
	rep.attempted = len(all)
	for _, o := range all {
		if o.failed() {
			rep.failed++
			if rep.failed <= 5 {
				rep.problems = append(rep.problems, fmt.Sprintf("%s request failed: %s", o.op.kind, o.firstError()))
			}
		}
	}

	// A traced run's JSON carries the per-layer metrics; it still prints
	// the untraced half's end-to-end ones.
	e2e, layered := &rep.m, &rep.extra
	if o.trace {
		e2e, layered = &rep.extra, &rep.m
	}
	setupRefMS, windowRefMS := percentile(setupRef, 50), percentile(win.ref, 50)
	endToEnd(e2e, &rep.extra, win, setupS, heap, refNominalMS/setupRefMS, refNominalMS/windowRefMS, o.w)
	layered.add("bench.setup_ref_ms", setupRefMS, "ms", len(setupRef))
	layered.add("bench.window_ref_ms", windowRefMS, "ms", len(win.ref))
	rep.extra.add("failed_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted)
	// Server and load generator share the process, so this bounds the
	// server's share of the machine from above.
	rep.extra.add("bench.cpu_util", win.cpuUtil, "ratio", 1)
	if !o.trace {
		return rep, nil
	}
	if err := perLayer(rep, o, path, pl, rp, win); err != nil {
		return nil, err
	}
	rep.trace = filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.w.Name, o.seed))
	return rep, win.rec.write(rep.trace)
}

// cpuTime returns the CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windows is what drive measured.
type windows struct {
	warm          []*outcome // untimed requests that filled the result cache
	outs1, outs2  []*outcome // the untraced and the traced window
	before, after *scrape    // around the traced window
	rec           *recorder  // spans of the traced window
	final         *scrape    // after the last window
	checks        []*outcome // live: queries sent after the last update was acknowledged
	cpuUtil       float64    // process CPU time over the untraced window, per available CPU

	// The untraced window runs in refPauses parts; busy is their summed
	// length, and ref holds the reference kernel's times from the pauses
	// between them.
	busy time.Duration
	ref  []float64
}

// drive warms the stack and runs the measured window in refPauses
// parts, with the reference kernel timed in the pause after each (an
// open loop's part holds the requests due in its share of the window);
// with tracing, a traced window between two scrapes follows. On a live
// graph it then sends the check queries.
func drive(o runOptions, d *loadgen, t *traffic, pl *plan) (*windows, error) {
	win := &windows{warm: d.all(pl.warm, 2)}
	next := t.closedNext()
	part := o.window / refPauses
	var cpu time.Duration
	for i := range refPauses {
		cpu0, wall0 := cpuTime(), time.Now()
		var outs []*outcome
		if o.w.Loop == "closed" {
			outs = d.closedLoop(o.w.Clients, part, next, false)
		} else {
			from, to := time.Duration(i)*part, time.Duration(i+1)*part
			if i == refPauses-1 {
				to = o.window
			}
			var ops []*op
			for _, op := range pl.windows[0] {
				if op.at >= from && op.at < to {
					ops = append(ops, op)
				}
			}
			outs = d.openLoop(ops, from, false)
		}
		win.busy += time.Since(wall0)
		cpu += cpuTime() - cpu0
		win.outs1 = append(win.outs1, outs...)
		win.ref = hostRef(refPauseRounds, win.ref)
	}
	win.cpuUtil = cpu.Seconds() / (win.busy.Seconds() * float64(runtime.GOMAXPROCS(0)))
	var err error
	if o.trace {
		if win.before, err = scrapeStack(d.st); err != nil {
			return nil, err
		}
		win.rec = newRecorder()
		d.st.tracing.Store(win.rec)
		if o.w.Loop == "closed" {
			win.outs2 = d.closedLoop(o.w.Clients, o.window, next, true)
		} else {
			win.outs2 = d.openLoop(pl.windows[1], 0, true)
		}
		d.st.tracing.Store(nil)
		if win.after, err = scrapeStack(d.st); err != nil {
			return nil, err
		}
	}
	win.checks = d.all(pl.checks, 1)
	win.final, err = scrapeStack(d.st)
	return win, err
}

// all sends ops from clients callers, each taking the next op as soon as
// its previous one is answered, and returns every outcome.
func (d *loadgen) all(ops []*op, clients int) []*outcome {
	var mu sync.Mutex
	next := 0
	outs := make([]*outcome, 0, len(ops))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(ops) {
					mu.Unlock()
					return
				}
				o := ops[next]
				next++
				mu.Unlock()
				out := d.do(o, time.Now(), false)
				mu.Lock()
				outs = append(outs, out)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sortByID(outs)
	return outs
}

// checkLive checks a live run after its last update was acknowledged:
// the replica, having replayed every acknowledged batch in version
// order, must hold the server's graph (same version and fingerprint),
// and the check queries must be answered exactly as a cold engine over
// the replica's final graph answers them.
func checkLive(rp *replica, win *windows, workers int) map[string]string {
	answers, bad := distinctAnswers(win.checks)
	g := rp.eng.Graph()
	if v, fp := rp.eng.Version(), fmt.Sprintf("%016x", rp.eng.Fingerprint()); v != win.final.graph.Version || fp != win.final.graph.Fingerprint {
		bad["graph"] = fmt.Sprintf("server graph at version %d (%s), replica at %d (%s)", win.final.graph.Version, win.final.graph.Fingerprint, v, fp)
	}
	cold, err := dccs.NewEngine(g, dccs.EngineConfig{})
	if err != nil {
		bad["graph"] = err.Error()
		return bad
	}
	for k, v := range checkAnswers(g, cold, answers, nil, workers) {
		bad[k] = v
	}
	return bad
}

// scrape is one reading of the server's /metrics and /v1/graphs.
type scrape struct {
	prom  map[string]float64
	graph server.GraphInfo
}

func scrapeStack(st *stack) (*scrape, error) {
	body, err := st.get("/metrics")
	if err != nil {
		return nil, err
	}
	s := &scrape{prom: map[string]float64{}}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s.prom[line[:i]] = v
		}
	}
	body, err = st.get("/v1/graphs")
	if err != nil {
		return nil, err
	}
	var gs struct {
		Graphs []server.GraphInfo `json:"graphs"`
	}
	if err := json.Unmarshal(body, &gs); err != nil || len(gs.Graphs) != 1 {
		return nil, fmt.Errorf("/v1/graphs: %v (%d graphs)", err, len(gs.Graphs))
	}
	s.graph = gs.Graphs[0]
	return s, nil
}

// delta returns the growth of every series whose name starts with prefix.
func delta(before, after *scrape, prefix string) float64 {
	sum := 0.0
	for k, v := range after.prom {
		if strings.HasPrefix(k, prefix) {
			sum += v - before.prom[k]
		}
	}
	return sum
}

// classes splits a window's successful outcomes by request class.
func classes(outs []*outcome) (searches, batches, updates []*outcome) {
	for _, o := range outs {
		if o.failed() {
			continue
		}
		switch o.op.kind {
		case kindSearch:
			searches = append(searches, o)
		case kindBatch:
			batches = append(batches, o)
		default:
			updates = append(updates, o)
		}
	}
	return searches, batches, updates
}

func latenciesMS(outs []*outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = ms(o.latency())
	}
	return xs
}

// addTails adds each tail percentile of a request class with at least
// minBeyond samples beyond it.
func addTails(m *metrics, name string, xs []float64, tails ...float64) {
	for _, p := range tails {
		if supported(p, len(xs)) {
			m.add(fmt.Sprintf("%s_p%d_ms", name, int(p)), percentile(xs, p), "ms", len(xs))
		}
	}
}

// endToEnd computes the untraced window's end-to-end metrics: into m
// those BENCHMARK.json bounds, into extra the tails and the latencies
// of each request class, printed with their sample counts. The bounded
// timings are scaled to the reference host (hostref.go), setup_s by
// setupScale and the window's by scale; extra gets each unscaled, under
// its name with ".raw" added. An open loop's search_qps is the offered
// rate whatever the host's speed, so it is left as measured.
func endToEnd(m, extra *metrics, win *windows, setupS []float64, heap, setupScale, scale float64, w workloadSpec) {
	warm, outs := win.warm, win.outs1
	timed := func(name string, v float64, unit string, n int) {
		scale := scale
		if name == "setup_s" {
			scale = setupScale
		}
		switch {
		case unit != "1/s":
			m.add(name, v*scale, unit, n)
		case w.Loop == "closed":
			m.add(name, v/scale, unit, n)
		default:
			m.add(name, v, unit, n)
			return
		}
		extra.add(name+".raw", v, unit, n)
	}
	searches, batches, updates := classes(outs)
	timed("setup_s", percentile(setupS, 50), "s", len(setupS))
	m.add("heap_mb", heap, "MiB", 1)
	sl := latenciesMS(searches)
	timed("search_p50_ms", percentile(sl, 50), "ms", len(sl))
	addTails(extra, "search", sl, 90, 99)

	answered := 0
	for _, o := range outs {
		if !o.failed() {
			answered += len(o.answers)
		}
	}
	timed("search_qps", ratio(float64(answered), win.busy.Seconds()), "1/s", answered)

	// The engine-computed answers: on search-hot these include the
	// warm-up's, which cover the popular queries the window then hits.
	var answers []answer
	for _, o := range append(warm, outs...) {
		if !o.failed() {
			answers = append(answers, o.answers...)
		}
	}
	mean, n := coverMean(answers)
	m.add("cover_mean", mean, "count", n)

	second := batches
	if w.Mutable {
		second = updates
	}
	bl := latenciesMS(second)
	timed("batch_or_update_p50_ms", percentile(bl, 50), "ms", len(bl))
	for _, c := range []struct {
		name string
		outs []*outcome
	}{{"batch", batches}, {"update", updates}} {
		if len(c.outs) > 0 {
			xs := latenciesMS(c.outs)
			extra.add(c.name+"_p50_ms", percentile(xs, 50), "ms", len(xs))
			addTails(extra, c.name, xs, 90, 99)
		}
	}
}

// coverMean returns the class-balanced mean cover of the distinct
// engine-computed answers: the mean over (d, s) classes of each class's
// mean cover, and how many answers it saw. Covers differ by class far
// more than within one, so an unweighted mean would move with how many
// queries of each class a seed happened to draw.
func coverMean(answers []answer) (float64, int) {
	type class struct{ d, s int }
	byClass := map[class]map[string]int{}
	n := 0
	for _, a := range answers {
		if a.source != "engine" {
			continue
		}
		c := class{a.q.D, a.q.S}
		if byClass[c] == nil {
			byClass[c] = map[string]int{}
		}
		if _, ok := byClass[c][a.q.key()]; !ok {
			n++
		}
		byClass[c][a.q.key()] = a.cover
	}
	sum := 0.0
	for _, covers := range byClass {
		total := 0
		for _, v := range covers {
			total += v
		}
		sum += float64(total) / float64(len(covers))
	}
	return ratio(sum, float64(len(byClass))), n
}

// perLayer computes the traced run's per-layer metrics.
func perLayer(rep *report, o runOptions, path string, pl *plan, rp *replica, win *windows) error {
	m := &rep.m
	outs1, outs2, before, after := win.outs1, win.outs2, win.before, win.after
	m.add("server.self_ms_p50", percentile(rp.serverSelfMS, 50), "ms", len(rp.serverSelfMS))
	m.add("server.batch_or_update_self_ms_p50", percentile(rp.secondSelfMS, 50), "ms", len(rp.secondSelfMS))
	hits := delta(before, after, "dccs_cache_hits_total")
	misses := delta(before, after, "dccs_cache_misses_total")
	m.add("server.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	answered, respBytes := 0, 0.0
	for _, out := range outs2 {
		answered += len(out.answers)
		respBytes += float64(out.bytes)
	}
	shared := delta(before, after, "dccs_coalesced_total") + delta(before, after, `dccs_batch_items_total{source="dup"}`)
	m.add("server.coalesced_ratio", ratio(shared, float64(answered)), "ratio", answered)
	m.add("server.evictions", delta(before, after, "dccs_cache_evictions_total"), "count", 1)
	m.add("server.resp_bytes_mean", ratio(respBytes, float64(len(outs2))), "bytes", len(outs2))
	m.add("server.rejected", delta(before, after, "dccs_rejected_total"), "count", 1)

	m.add("engine.search_ms_p50", percentile(rp.engineMS, 50), "ms", len(rp.engineMS))
	m.add("engine.cachekey_us_p50", percentile(rp.cachekeyUS, 50), "us", len(rp.cachekeyUS))
	m.add("engine.hierarchy_builds", float64(after.graph.HierarchyBuilds), "count", 1)
	m.add("engine.coreness_builds", float64(after.graph.CorenessBuilds), "count", 1)

	if err := probes(o.w, path, o.seed, m); err != nil {
		return err
	}
	lv := rp
	if !o.w.Mutable {
		var err error
		if lv, err = liveProbe(o.w, path, pl.probe); err != nil {
			return err
		}
	}
	m.add("live.validate_ms_p50", percentile(lv.validateMS, 50), "ms", len(lv.validateMS))
	m.add("live.apply_ms_p50", percentile(lv.applyMS, 50), "ms", len(lv.applyMS))
	m.add("live.freeze_ms_p50", percentile(lv.freezeMS, 50), "ms", len(lv.freezeMS))
	m.add("core.derive_ms_p50", percentile(lv.derMS, 50), "ms", len(lv.derMS))
	m.add("live.dirty_layers", float64(lv.dirty), "count", len(lv.derMS))
	m.add("core.rebuilt_hierarchies", float64(lv.rebuilt), "count", len(lv.derMS))
	m.add("core.invalidated_hierarchies", float64(lv.invalidated), "count", len(lv.derMS))
	m.add("core.retained_hierarchies", float64(lv.kept), "count", len(lv.derMS))

	late := make([]float64, 0, len(outs2))
	for _, out := range outs2 {
		if !out.sent.IsZero() {
			late = append(late, ms(out.sent.Sub(out.due)))
		}
	}
	m.add("bench.late_ms_p99", percentile(late, 99), "ms", len(late))
	s1, _, _ := classes(outs1)
	s2, _, _ := classes(outs2)
	m.add("bench.trace_overhead_ratio", percentile(latenciesMS(s2), 50)/percentile(latenciesMS(s1), 50), "ratio", len(s2))

	root := float64(rp.rootNS)
	m.add("trace.ops", float64(rp.ops), "count", rp.ops)
	m.add("trace.server_covered_share", ratio(float64(rp.serverNS-rp.serverSelfNS), float64(rp.serverNS)), "ratio", rp.ops)
	m.add("trace.client_share", ratio(rp.clientNS, root), "ratio", rp.ops)
	m.add("trace.server_share", ratio(rp.srvAttrNS, root), "ratio", rp.ops)
	m.add("trace.engine_share", ratio(rp.engNS, root), "ratio", rp.ops)
	m.add("trace.core_share", ratio(rp.coreNS, root), "ratio", rp.ops)
	m.add("trace.live_share", ratio(rp.liveNS, root), "ratio", rp.ops)
	m.add("trace.clipped_ops", float64(rp.clipped), "count", rp.ops)
	m.add("trace.replay_over_server_p50", percentile(rp.replayOverServer, 50), "ratio", len(rp.replayOverServer))
	return nil
}

// jsonValue renders a metric value for the result line: NaN (no
// samples) becomes -1, since JSON has no NaN.
func jsonValue(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}
