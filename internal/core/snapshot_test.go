package core

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/multilayer"
	"repro/internal/testutil"
)

func snapshotTestGraphs(t *testing.T) (gA, gB *multilayer.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	return testutil.RandomCorrelatedGraph(rng, 60, 6, 0.25, 0.85, 0.05),
		testutil.RandomCorrelatedGraph(rng, 60, 6, 0.25, 0.85, 0.05)
}

// TestSnapshotRoundTrip is the snapshot half of the ISSUE's equivalence
// criterion at the core layer: a restored handle answers the exact same
// results and Stats (modulo wall clock) as the handle that built the
// artifacts, without building anything itself.
func TestSnapshotRoundTrip(t *testing.T) {
	g, _ := snapshotTestGraphs(t)
	builder := NewPrepared(g, 1)
	queries := []Options{
		{D: 2, S: 2, K: 4, Seed: 7},
		{D: 3, S: 4, K: 4, Seed: 7},
		{D: 3, S: 2, K: 3, Seed: 11},
	}
	type run struct {
		res *Result
	}
	var want []run
	for _, o := range queries {
		for _, algo := range []func(context.Context, Options) (*Result, error){builder.BottomUp, builder.TopDown, builder.Greedy} {
			res, err := algo(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, run{res: res})
		}
	}

	var buf bytes.Buffer
	if err := builder.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored := NewPrepared(g, 1)
	if err := restored.RestoreSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if c := restored.Counters(); c.CorenessBuilds != 0 || c.HierarchyBuilds != 0 {
		t.Fatalf("restore counted as builds: %+v", c)
	}
	i := 0
	for _, o := range queries {
		for _, algo := range []func(context.Context, Options) (*Result, error){restored.BottomUp, restored.TopDown, restored.Greedy} {
			res, err := algo(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			ws, rs := want[i].res.Stats, res.Stats
			ws.Elapsed, rs.Elapsed = 0, 0
			if !reflect.DeepEqual(ws, rs) {
				t.Fatalf("query %d stats differ:\nbuilt    %+v\nrestored %+v", i, ws, rs)
			}
			if res.CoverSize != want[i].res.CoverSize || !reflect.DeepEqual(res.Cores, want[i].res.Cores) {
				t.Fatalf("query %d results differ", i)
			}
			i++
		}
	}
	// Every query above hit a snapshotted artifact: the restored handle
	// must have served all of them without one build.
	if c := restored.Counters(); c.CorenessBuilds != 0 || c.HierarchyBuilds != 0 {
		t.Fatalf("restored handle rebuilt artifacts: %+v", c)
	}
}

// TestSnapshotColdHandle snapshots a handle that has served nothing: the
// snapshot carries the coreness tier only and still restores cleanly.
func TestSnapshotColdHandle(t *testing.T) {
	g, _ := snapshotTestGraphs(t)
	var buf bytes.Buffer
	if err := NewPrepared(g, 1).WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewPrepared(g, 1)
	if err := restored.RestoreSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if c := restored.Counters(); c.CorenessBuilds != 0 {
		t.Fatalf("coreness restore counted as build: %+v", c)
	}
	if _, err := restored.BottomUp(context.Background(), Options{D: 2, S: 2, K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// The hierarchy for d=2 was not in the snapshot; serving it builds
	// exactly it, nothing more.
	if c := restored.Counters(); c.CorenessBuilds != 0 || c.HierarchyBuilds != 1 {
		t.Fatalf("unexpected builds after cold-snapshot query: %+v", c)
	}
}

// TestSnapshotWideGraph exercises the l > 64 path, where the hierarchy
// build cannot use the tracker's 64-bit layer masks.
func TestSnapshotWideGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testutil.RandomCorrelatedGraph(rng, 25, 66, 0.3, 0.7, 0.02)
	builder := NewPrepared(g, 1)
	o := Options{D: 2, S: 2, K: 3, Seed: 3}
	want, err := builder.BottomUp(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := builder.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewPrepared(g, 1)
	if err := restored.RestoreSnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, err := restored.BottomUp(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if got.CoverSize != want.CoverSize || !reflect.DeepEqual(got.Cores, want.Cores) {
		t.Fatal("wide-graph snapshot changed the answer")
	}
	if c := restored.Counters(); c.CorenessBuilds != 0 || c.HierarchyBuilds != 0 {
		t.Fatalf("restored handle rebuilt artifacts: %+v", c)
	}
}

// TestSnapshotGraphMismatch pins the fingerprint gate: artifacts saved
// for one graph must never install against another.
func TestSnapshotGraphMismatch(t *testing.T) {
	gA, gB := snapshotTestGraphs(t)
	builder := NewPrepared(gA, 1)
	if _, err := builder.BottomUp(context.Background(), Options{D: 2, S: 2, K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := builder.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	other := NewPrepared(gB, 1)
	if err := other.RestoreSnapshot(buf.Bytes()); err == nil {
		t.Fatal("snapshot of gA restored into gB without error")
	}
	// The failed restore must leave the handle fully functional and cold.
	if c := other.Counters(); c.CorenessBuilds != 0 || c.HierarchyBuilds != 0 {
		t.Fatalf("failed restore left builds behind: %+v", c)
	}
	if _, err := other.BottomUp(context.Background(), Options{D: 2, S: 2, K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCorrupt pins error-not-panic over truncations and byte
// flips of a valid snapshot image.
func TestSnapshotCorrupt(t *testing.T) {
	g, _ := snapshotTestGraphs(t)
	builder := NewPrepared(g, 1)
	if _, err := builder.TopDown(context.Background(), Options{D: 2, S: 4, K: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := builder.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	for cut := 1; cut < len(valid); cut += 251 {
		if err := NewPrepared(g, 1).RestoreSnapshot(valid[:len(valid)-cut]); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
	if err := NewPrepared(g, 1).RestoreSnapshot(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Any byte flip anywhere in the image must be rejected — the header
	// checks catch the front, the trailing checksum catches the body
	// (including artifact content that is structurally plausible but
	// wrong, which previously restored fine and could crash queries).
	for off := 0; off < len(valid); off += 97 {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0xff
		if err := NewPrepared(g, 1).RestoreSnapshot(mut); err == nil {
			t.Fatalf("byte flip at %d accepted", off)
		}
	}
}
