package dccs

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datasets"
)

// updateGolden rewrites the files under testdata/golden from the current
// code instead of comparing against them:
//
//	go test -run 'TestGolden' -update-golden .
//
// The committed files pin the search output of an earlier release, so
// only regenerate them for a change that is meant to alter results.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current code")

const (
	goldenResults  = "testdata/golden/results.jsonl"
	goldenSnapshot = "testdata/golden/engine_v2.mlgs"
)

// goldenGraph is a small planted graph whose d ∈ {2,3,4} cores are
// nonempty on every support threshold the golden queries use.
func goldenGraph() *Graph {
	return datasets.Generate(datasets.Config{
		Name: "golden", N: 300, Layers: 8, Seed: 11,
		AvgDegree: 3, Gamma: 2.5, Correlation: 0.5,
		Communities: 6, MinSize: 12, MaxSize: 28, MinSupport: 2, MaxSupport: 6, PIn: 0.6,
		Persistent: 1, CrossLayerNoise: 0.1,
	}).Graph
}

// goldenQueries covers d ∈ {2,3,4} × s ∈ {2,3,l−2}, each through the
// bottom-up and top-down searches, serial and with a parallel first level.
func goldenQueries(l int) []Query {
	var qs []Query
	for _, d := range []int{2, 3, 4} {
		for _, s := range []int{2, 3, l - 2} {
			for _, algo := range []Algorithm{AlgoBottomUp, AlgoTopDown} {
				for _, w := range []int{1, 3} {
					qs = append(qs, Query{D: d, S: s, K: 5, Seed: 7, Algorithm: algo, Workers: w})
				}
			}
		}
	}
	return qs
}

// goldenEntry is one query's pinned outcome. DCCCalls and Elapsed are
// left out: the first measures how the search computes its cores, not
// what it finds, and the second is wall time.
type goldenEntry struct {
	D, S, K           int
	Seed              int64
	Algorithm         Algorithm
	Workers           int
	CacheKey          string
	Cores             []CC
	CoverSize         int
	PreprocessRemoved int
	TreeNodes         int
	Candidates        int
	Updates           int
	Pruned            int
	Truncated         bool
	Interrupted       bool
	Ran               string
}

// goldenRun answers every golden query on eng and renders the outcomes
// as JSON lines, one query per line, so a failure points at the query.
func goldenRun(t *testing.T, eng *Engine) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, q := range goldenQueries(eng.Graph().L()) {
		res, err := eng.Search(context.Background(), q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		st := res.Stats
		line, err := json.Marshal(goldenEntry{
			D: q.D, S: q.S, K: q.K, Seed: q.Seed, Algorithm: q.Algorithm, Workers: q.Workers,
			CacheKey: eng.CacheKey(q), Cores: res.Cores, CoverSize: res.CoverSize,
			PreprocessRemoved: st.PreprocessRemoved, TreeNodes: st.TreeNodes, Candidates: st.Candidates,
			Updates: st.Updates, Pruned: st.Pruned, Truncated: st.Truncated, Interrupted: st.Interrupted,
			Ran: st.Algorithm,
		})
		if err != nil {
			t.Fatal(err)
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// TestGoldenResults pins Engine answers and search statistics to the
// committed fixture byte for byte.
func TestGoldenResults(t *testing.T) {
	eng, err := NewEngine(goldenGraph(), EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got := goldenRun(t, eng)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenResults), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenResults, got, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := eng.SaveSnapshot(goldenSnapshot); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenResults)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("results differ from %s (rerun with -update-golden only for an intended change):\n%s", goldenResults, firstDiff(got, want))
	}
}

// TestGoldenSnapshotRestores loads the committed version-2 snapshot,
// written by an earlier release that still persisted the union adjacency
// and layer masks, and checks that the restored engine serves every
// snapshotted d without a build and answers exactly as a cold engine.
func TestGoldenSnapshotRestores(t *testing.T) {
	if *updateGolden {
		t.Skip("fixture is being rewritten")
	}
	g := goldenGraph()
	warm, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.LoadSnapshot(goldenSnapshot); err != nil {
		t.Fatal(err)
	}
	cold, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := goldenRun(t, warm), goldenRun(t, cold)
	if !bytes.Equal(got, want) {
		t.Fatalf("restored engine differs from a cold one:\n%s", firstDiff(got, want))
	}
	if m := warm.Metrics(); m.HierarchyBuilds != 0 || m.CorenessBuilds != 0 {
		t.Fatalf("restored engine rebuilt artifacts: %+v", m)
	}
}

// firstDiff renders the first differing line of two fixtures.
func firstDiff(got, want []byte) string {
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(gl), len(wl))
}

// TestGoldenSnapshotRangeChecksUnionAdjacency rewrites one union-adjacency
// id of the version-2 fixture out of range, with a valid checksum: the
// section is dropped on restore, but a malformed one is still rejected.
func TestGoldenSnapshotRangeChecksUnionAdjacency(t *testing.T) {
	data, err := os.ReadFile(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	g := goldenGraph()
	n, l := g.N(), g.L()
	if v := binary.LittleEndian.Uint32(data[4:]); v != 2 {
		t.Fatalf("fixture is snapshot version %d, want 2", v)
	}
	// magic+version, five int64 header fields, l coreness sections of n
	// int32 (n is even, so no padding), the id count, n+1 offsets.
	total := 8 + 5*8 + l*4*n
	if binary.LittleEndian.Uint64(data[total:]) == 0 {
		t.Fatal("fixture carries no union adjacency")
	}
	firstID := total + 8 + 8*(n+1)
	bad := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad[firstID:], uint32(n))
	body := bad[:len(bad)-8]
	sum := fnv.New64a()
	sum.Write(body)
	binary.LittleEndian.PutUint64(bad[len(body):], sum.Sum64())
	path := filepath.Join(t.TempDir(), "bad.mlgs")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadSnapshot(path); err == nil || !strings.Contains(err.Error(), "union adjacency id") {
		t.Fatalf("out-of-range union adjacency id: err = %v", err)
	}
}
