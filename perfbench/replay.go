package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	dccs "repro"
	"repro/internal/core"
	"repro/internal/live"
)

// maxTraced bounds how many operations of the traced window get replay
// spans: enough for stable medians, few enough that the replays stay a
// fraction of the run.
const maxTraced = 300

// minEngineSamples is how many View.Search replays engine.search_ms_p50
// gets at least, even when the server computed fewer answers.
const minEngineSamples = 30

// replica is a second copy of the stack's state, driven directly through
// each layer's exported functions: eng (the dccs layer) and, when
// tracing, pr and store (internal/core and internal/live). For live
// workloads it replays the acknowledged update batches in the order the
// server applied them.
type replica struct {
	w     workloadSpec
	eng   *dccs.Engine
	pr    *core.Prepared
	store *live.Store
	rec   *recorder // nil: apply updates only, record nothing
	lanes int       // server.Config.MaxInflight: batch items run on this many workers

	results map[string]*dccs.Result // engine.search replays, reused by the checks

	cachekeyUS, engineMS                 []float64
	serverSelfMS, secondSelfMS           []float64
	validateMS, applyMS, freezeMS, derMS []float64
	dirty, rebuilt, invalidated, kept    int

	ops, clipped                               int
	rootNS, serverNS, serverSelfNS             int64
	clientNS, srvAttrNS, engNS, coreNS, liveNS float64
	replayOverServer                           []float64
}

func newReplica(w workloadSpec, path string, rec *recorder) (*replica, error) {
	g, err := dccs.ReadGraphFile(path)
	if err != nil {
		return nil, err
	}
	newEngine := dccs.NewEngine
	if w.Mutable {
		newEngine = dccs.NewMutableEngine
	}
	eng, err := newEngine(g, dccs.EngineConfig{})
	if err != nil {
		return nil, err
	}
	if err := eng.Warm(w.Ds...); err != nil {
		return nil, err
	}
	r := &replica{w: w, eng: eng, rec: rec, lanes: runtime.GOMAXPROCS(0), results: map[string]*dccs.Result{}}
	if rec != nil {
		r.pr = core.NewPrepared(g, dccs.Options{}.MaterializeWorkers())
		if err := r.pr.PrepareDs(context.Background(), w.Ds...); err != nil {
			return nil, err
		}
		if w.Mutable {
			r.store = live.NewStore(g)
		}
	}
	return r, nil
}

// ackedBatches returns the update batches that changed the graph, in the
// order the server applied them, and checks that their versions run
// 1, 2, … without a gap.
func ackedBatches(outs []*outcome) ([]*outcome, error) {
	var acked []*outcome
	for _, o := range outs {
		if o.op.kind == kindUpdate && o.update != nil && o.update.Inserted+o.update.Deleted > 0 {
			acked = append(acked, o)
		}
	}
	slices.SortFunc(acked, func(a, b *outcome) int { return int(a.update.Version) - int(b.update.Version) })
	for i, o := range acked {
		if o.update.Version != uint64(i+1) {
			return nil, fmt.Errorf("acknowledged update versions are not 1..%d: position %d has version %d", len(acked), i, o.update.Version)
		}
	}
	return acked, nil
}

// replay drives the replica through a run's outcomes. Every acknowledged
// update batch is applied in version order; traced operations (at most
// maxTraced, in id order) also get their span trees, their searches
// replayed against the replica state of the version they saw.
func (r *replica) replay(outs []*outcome, traced []*outcome) error {
	acked, err := ackedBatches(outs)
	if err != nil {
		return err
	}
	var searches []*outcome
	tracedIDs := map[int]bool{}
	for _, o := range traced {
		if len(tracedIDs) == maxTraced {
			break
		}
		if o.failed() {
			continue
		}
		tracedIDs[o.id] = true
		if o.op.kind != kindUpdate {
			searches = append(searches, o)
		}
	}
	slices.SortStableFunc(searches, func(a, b *outcome) int { return int(a.verSeen) - int(b.verSeen) })
	j := 0
	for _, u := range acked {
		for ; j < len(searches) && searches[j].verSeen < u.update.Version; j++ {
			if err := r.traceSearch(searches[j]); err != nil {
				return err
			}
		}
		if err := r.applyBatch(u, tracedIDs[u.id]); err != nil {
			return err
		}
	}
	for ; j < len(searches); j++ {
		if err := r.traceSearch(searches[j]); err != nil {
			return err
		}
	}
	return nil
}

// spans opens an operation's live span tree: request (from due), http
// (from send) and the server span the handler wrapper recorded.
func (r *replica) spans(o *outcome) (root, srv span, ok bool) {
	s, ok := r.rec.takeServer(o.id)
	if !ok {
		return span{}, span{}, false
	}
	root = span{Op: o.id, Parent: -1, Name: "request", Start: r.rec.ns(o.due), End: r.rec.ns(o.done)}
	root.ID = r.rec.add(o.id, -1, root.Name, root.Start, root.End, false)
	httpID := r.rec.add(o.id, root.ID, "http", r.rec.ns(o.sent), r.rec.ns(o.done), false)
	s.Parent = httpID
	s.ID = r.rec.add(o.id, httpID, "server", s.Start, s.End, false)
	return root, s, true
}

// place lays replayed durations inside parent on the given lanes and
// records them as spans named name.
func (r *replica) place(o *outcome, parent span, from int64, name string, durs []int64, lanes int) ([]span, bool) {
	ivs, clipped := layout(from, parent.End, durs, lanes)
	out := make([]span, len(ivs))
	for i, iv := range ivs {
		out[i] = span{Op: o.id, Parent: parent.ID, Name: name, Start: iv[0], End: iv[1], Replay: true}
		out[i].ID = r.rec.add(o.id, parent.ID, name, iv[0], iv[1], true)
	}
	return out, clipped
}

func since(t time.Time) int64 { return int64(time.Since(t)) }

// traceSearch replays a search or batch: the server computed a cache key
// for every query and ran the engine for the items it reports as
// "engine"; the replica does the same through View.CacheKey, View.Search
// and the matching Prepared.BottomUp or TopDown.
func (r *replica) traceSearch(o *outcome) error {
	root, srv, ok := r.spans(o)
	if !ok {
		return nil
	}
	view := r.eng.View()
	ckDurs := make([]int64, len(o.answers))
	var engDurs, coreDurs []int64
	for i, a := range o.answers {
		t := time.Now()
		_ = view.CacheKey(a.q.engineQuery())
		ckDurs[i] = since(t)
		r.cachekeyUS = append(r.cachekeyUS, float64(ckDurs[i])/1e3)
		// Answers the server computed are replayed for their spans; on
		// cache-heavy traffic a few served from cache are timed too, so
		// the engine layer always has samples.
		if a.source != "engine" && len(r.engineMS) >= minEngineSamples {
			continue
		}
		t = time.Now()
		res, err := view.Search(context.Background(), a.q.engineQuery())
		if err != nil {
			return fmt.Errorf("replay %s: %w", a.q.key(), err)
		}
		d := since(t)
		r.engineMS = append(r.engineMS, float64(d)/1e6)
		if !r.w.Mutable {
			r.results[a.q.key()] = res
		}
		if a.source != "engine" {
			continue
		}
		engDurs = append(engDurs, d)
		t = time.Now()
		if _, err := coreSearch(r.pr, r.w.Layers, a.q); err != nil {
			return fmt.Errorf("replay %s: %w", a.q.key(), err)
		}
		coreDurs = append(coreDurs, since(t))
	}
	cks, c1 := r.place(o, srv, srv.Start, "engine.cachekey", ckDurs, 1)
	from := srv.Start
	if len(cks) > 0 {
		from = cks[len(cks)-1].End
	}
	lanes := 1
	if o.op.kind == kindBatch {
		lanes = min(len(engDurs), r.lanes)
	}
	engs, c2 := r.place(o, srv, from, "engine.search", engDurs, lanes)
	clipped := c1 || c2
	for i, e := range engs {
		_, c := r.place(o, e, e.Start, "core.search", coreDurs[i:i+1], 1)
		clipped = clipped || c
	}
	r.account(o, root, srv, clipped, makespan(ckDurs, 1)+makespan(engDurs, lanes))
	return nil
}

// coreSearch runs q directly on a Prepared, with the algorithm the
// engine's auto rule picks: top-down when 2s ≥ l, else bottom-up.
func coreSearch(pr *core.Prepared, layers int, q query) (*core.Result, error) {
	if 2*q.S >= layers && layers <= 64 {
		return pr.TopDown(context.Background(), q.options())
	}
	return pr.BottomUp(context.Background(), q.options())
}

// applyBatch applies one acknowledged batch to the replica: through
// Engine.ApplyUpdates, and when tracing also step by step through the
// live store and Prepared.Derive, timing each layer.
func (r *replica) applyBatch(o *outcome, traced bool) error {
	t := time.Now()
	st, err := r.eng.ApplyUpdates(context.Background(), o.op.updates)
	if err != nil {
		return err
	}
	applyDur := since(t)
	if st.Version != o.update.Version {
		return fmt.Errorf("replica reached version %d replaying the server's version %d", st.Version, o.update.Version)
	}
	if r.rec == nil {
		return nil
	}
	steps, err := r.liveSteps(o.op.updates, o.update.Version)
	if err != nil || !traced {
		return err
	}
	root, srv, ok := r.spans(o)
	if !ok {
		return nil
	}
	apply, clipped := r.place(o, srv, srv.Start, "engine.apply", []int64{applyDur}, 1)
	from := apply[0].Start
	for i, name := range []string{"live.validate", "live.apply", "live.freeze", "core.derive"} {
		s, c := r.place(o, apply[0], from, name, steps[i:i+1], 1)
		from, clipped = s[0].End, clipped || c
	}
	r.account(o, root, srv, clipped, applyDur)
	return nil
}

// liveSteps applies a batch to the internal replica one layer call at a
// time and returns the validate, apply, freeze and derive durations.
func (r *replica) liveSteps(updates []dccs.EdgeUpdate, version uint64) ([]int64, error) {
	ups := make([]live.Update, len(updates))
	for i, u := range updates {
		ups[i] = live.Update{Op: live.Op(u.Op), Layer: u.Layer, U: u.U, V: u.V}
	}
	steps := make([]int64, 4)
	t := time.Now()
	if err := r.store.Validate(ups); err != nil {
		return nil, err
	}
	steps[0] = since(t)
	t = time.Now()
	res := r.store.Apply(context.Background(), ups)
	steps[1] = since(t)
	if !res.Changed {
		return nil, fmt.Errorf("replayed batch %d changed nothing on the replica", version)
	}
	t = time.Now()
	g := r.store.Freeze()
	steps[2] = since(t)
	t = time.Now()
	np, info := r.pr.Derive(g, core.DirtySet{Layers: res.DirtyLayers, UnionVerts: res.Touched, MaxDirtyD: res.MaxDirtyD}, version)
	steps[3] = since(t)
	r.pr = np
	r.validateMS = append(r.validateMS, float64(steps[0])/1e6)
	r.applyMS = append(r.applyMS, float64(steps[1])/1e6)
	r.freezeMS = append(r.freezeMS, float64(steps[2])/1e6)
	r.derMS = append(r.derMS, float64(steps[3])/1e6)
	r.dirty += info.DirtyLayers
	r.rebuilt += info.RebuiltHierarchies
	r.invalidated += info.InvalidatedHierarchies
	r.kept += info.RetainedHierarchies
	return steps, nil
}

// account folds one finished span tree into the layer totals. replayed
// is how long the server span's replayed children take unclipped:
// sequential ones summed, a batch's items as laid on their lanes. Over
// the live server span it says whether the layer calls fit the request
// they account for; the spans as recorded are clipped to fit.
func (r *replica) account(o *outcome, root, srv span, clipped bool, replayed int64) {
	spans := r.opSpans(o.id)
	self, attr := selfTimes(spans)
	r.ops++
	if clipped {
		r.clipped++
	}
	r.rootNS += root.dur()
	r.serverNS += srv.dur()
	r.serverSelfNS += self[srv.ID]
	if o.op.kind == kindSearch {
		r.serverSelfMS = append(r.serverSelfMS, float64(self[srv.ID])/1e6)
	} else {
		r.secondSelfMS = append(r.secondSelfMS, float64(self[srv.ID])/1e6)
	}
	if srv.dur() > 0 {
		r.replayOverServer = append(r.replayOverServer, float64(replayed)/float64(srv.dur()))
	}
	for _, s := range spans {
		a := float64(attr[s.ID])
		switch layerOf(s.Name) {
		case "client":
			r.clientNS += a
		case "server":
			r.srvAttrNS += a
		case "engine":
			r.engNS += a
		case "core":
			r.coreNS += a
		case "live":
			r.liveNS += a
		}
	}
}

func (r *replica) opSpans(op int) []span {
	r.rec.mu.Lock()
	defer r.rec.mu.Unlock()
	var out []span
	for i := len(r.rec.spans) - 1; i >= 0 && r.rec.spans[i].Op == op; i-- {
		out = append(out, r.rec.spans[i])
	}
	return out
}

// layerOf names the layer a span's self time is charged to.
func layerOf(name string) string {
	switch name {
	case "request", "http":
		return "client"
	case "server":
		return "server"
	case "engine.cachekey", "engine.search", "engine.apply":
		return "engine"
	case "core.search":
		return "core"
	default:
		return "live" // live.validate, live.apply, live.freeze, core.derive
	}
}
