package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/kcore"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

func TestMaxMissingPos(t *testing.T) {
	cases := []struct {
		lpos []int
		l    int
		want int
	}{
		{[]int{0, 1, 2, 3}, 4, -1}, // full set
		{[]int{0, 1, 3}, 4, 2},     // missing 2
		{[]int{1, 2, 3}, 4, 0},     // missing 0
		{[]int{0, 3}, 4, 2},        // missing 1,2
		{[]int{3}, 4, 2},           //
		{[]int{0, 1}, 4, 3},        // missing 2,3
		{[]int{}, 4, 3},            // empty
	}
	for _, c := range cases {
		if got := maxMissingPos(c.lpos, c.l); got != c.want {
			t.Errorf("maxMissingPos(%v, %d) = %d, want %d", c.lpos, c.l, got, c.want)
		}
	}
}

func TestRemovablePos(t *testing.T) {
	got := removablePos([]int{0, 1, 3}, 4) // maxMissing = 2
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("removablePos = %v, want [3]", got)
	}
	got = removablePos([]int{0, 1, 2, 3}, 4) // root: all removable
	if len(got) != 4 {
		t.Fatalf("removablePos(full) = %v", got)
	}
	got = removablePos([]int{0, 1}, 4) // maxMissing = 3: nothing removable
	if len(got) != 0 {
		t.Fatalf("removablePos = %v, want []", got)
	}
}

func TestRemovePos(t *testing.T) {
	got := removePos([]int{0, 2, 5}, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 5 {
		t.Fatalf("removePos = %v", got)
	}
}

// newTDSearchForTest builds a tdSearch over a preprocessed graph, exactly
// as (*Prepared).TopDown does, exposing refineU/refineC for direct
// testing.
func newTDSearchForTest(g *multilayer.Graph, opts Options) *tdSearch {
	p := preprocess(g, opts)
	p.sortLayers(true)
	counts, z := p.searchScratch()
	return &tdSearch{
		prep:          p,
		topk:          coverage.New(g.N(), opts.K),
		rng:           p.rng,
		scratchCounts: counts,
		scratchZ:      z,
	}
}

// TestRefineCExact verifies RefineC(U, L′) == dCC(G[U], L′) — which equals
// C^d_{L′}(G) whenever C^d_{L′}(G) ⊆ U, the search invariant — on
// randomized graphs, layer subsets, and supersets U.
func TestRefineCExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 8+rng.Intn(30), 2+rng.Intn(5), 0.3, 0.85, 0.08)
		d := 1 + rng.Intn(3)
		s := 1 + rng.Intn(g.L())
		opts := Options{D: d, S: s, K: 2, Seed: seed, NoVertexDeletion: rng.Intn(2) == 0}
		ts := newTDSearchForTest(g, opts)
		p := ts.prep

		for trial := 0; trial < 4; trial++ {
			size := s + rng.Intn(g.L()-s+1)
			lpos := testutil.RandomLayerSubset(rng, g.L(), size)
			layers := p.layersOf(lpos)
			// True d-CC on the preprocessed graph.
			truth := kcore.DCC(g, p.alive, layers, d)
			// U must contain the d-CC; pad with random alive vertices.
			u := truth.Clone()
			p.alive.ForEach(func(v int) bool {
				if rng.Float64() < 0.4 {
					u.Add(v)
				}
				return true
			})
			got := ts.refineC(u, nil, lpos)
			if !got.Equal(truth) {
				t.Logf("seed=%d d=%d s=%d lpos=%v |U|=%d: refineC=%d truth=%d",
					seed, d, s, lpos, u.Count(), got.Count(), truth.Count())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestRefineCSeedThroughHigherLevel is an exactness fixture: on this
// instance (found by quick.Check seed 8649498021724360057) the members
// {1, 10} of C³_{layer 3} connect to their component's only Lemma 9 seed
// exclusively through higher-level vertices, so the paper's upward-only
// level walk discards them and collapses the whole core to ∅. RefineC
// must recover the exact core.
func TestRefineCSeedThroughHigherLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(8649498021724360057))
	g := testutil.RandomCorrelatedGraph(rng, 8+rng.Intn(20), 2+rng.Intn(4), 0.35, 0.85, 0.08)
	d, s := 3, 1
	ts := newTDSearchForTest(g, Options{D: d, S: s, K: 10, Seed: 1, NoInitResult: true})
	p := ts.prep

	pos3 := -1
	for pos, orig := range p.order {
		if orig == 3 {
			pos3 = pos
		}
	}
	truth := kcore.DCC(g, p.alive, []int{3}, d)
	if truth.Count() != 7 {
		t.Fatalf("fixture drifted: |C³_{3}| = %d, want 7", truth.Count())
	}
	got := ts.refineC(p.alive, nil, []int{pos3})
	if !got.Equal(truth) {
		t.Fatalf("refineC = %v, want %v", got.Slice(), truth.Slice())
	}
}

// TestRefineCPinnedMatchesUnpinned walks random chains of the top-down
// tree the way the search does, pinning each child's refineU/refineC peel
// to the parent's exact d-CC, and checks that both results equal the
// unpinned peels and that the refined core is the exact C^d_{L′}.
func TestRefineCPinnedMatchesUnpinned(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 10+rng.Intn(25), 3+rng.Intn(4), 0.3, 0.85, 0.08)
		d := 1 + rng.Intn(3)
		s := 1 + rng.Intn(g.L())
		ts := newTDSearchForTest(g, Options{D: d, S: s, K: 3, Seed: seed, NoVertexDeletion: rng.Intn(2) == 0})
		p := ts.prep

		lpos := make([]int, g.L())
		for i := range lpos {
			lpos[i] = i
		}
		u := p.alive.Clone()
		cc := kcore.DCC(g, p.alive, p.layersOf(lpos), d)
		for len(lpos) > s {
			rem := removablePos(lpos, g.L())
			if len(rem) == 0 {
				break
			}
			lchild := removePos(lpos, rem[rng.Intn(len(rem))])
			u2 := ts.refineU(u, cc, lchild)
			if !u2.Equal(ts.refineU(u, nil, lchild)) {
				t.Logf("seed=%d lchild=%v: pinned refineU differs", seed, lchild)
				return false
			}
			cc2 := ts.refineC(u2, cc, lchild)
			if !cc2.Equal(ts.refineC(u2, nil, lchild)) || !cc2.Equal(kcore.DCC(g, p.alive, p.layersOf(lchild), d)) {
				t.Logf("seed=%d lchild=%v: pinned refineC is not the exact d-CC", seed, lchild)
				return false
			}
			lpos, u, cc = lchild, u2, cc2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRefineUSound verifies the potential-set invariants: U′ ⊆ U,
// C^d_S ⊆ U′ for every size-s descendant S of L′, and C^d_{L′} ⊆ U′.
func TestRefineUSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 8+rng.Intn(25), 3+rng.Intn(4), 0.3, 0.85, 0.08)
		d := 1 + rng.Intn(3)
		s := 1 + rng.Intn(g.L()-1)
		opts := Options{D: d, S: s, K: 2, Seed: seed}
		ts := newTDSearchForTest(g, opts)
		p := ts.prep

		// Start from the root potential set (alive) and walk a random
		// chain of the top-down tree, checking invariants at each step.
		lpos := make([]int, g.L())
		for i := range lpos {
			lpos[i] = i
		}
		u := p.alive.Clone()
		parent := kcore.DCC(g, p.alive, p.layersOf(lpos), d)
		for len(lpos) > s {
			rem := removablePos(lpos, g.L())
			if len(rem) == 0 {
				break
			}
			j := rem[rng.Intn(len(rem))]
			lchild := removePos(lpos, j)
			u2 := ts.refineU(u, parent, lchild)
			if !u2.SubsetOf(u) {
				return false
			}
			// C^d_{L′} must be inside U′.
			cc := kcore.DCC(g, p.alive, p.layersOf(lchild), d)
			if !cc.SubsetOf(u2) {
				return false
			}
			// Every size-s descendant's d-CC must be inside U′.
			for trial := 0; trial < 3; trial++ {
				sub := randomDescendantOf(rng, lchild, g.L(), s)
				if sub == nil {
					break
				}
				cs := kcore.DCC(g, p.alive, p.layersOf(sub), d)
				if !cs.SubsetOf(u2) {
					return false
				}
			}
			lpos, u, parent = lchild, u2, cc
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// randomDescendantOf mirrors tdSearch.randomDescendant for tests.
func randomDescendantOf(rng *rand.Rand, lpos []int, l, s int) []int {
	rem := removablePos(lpos, l)
	drop := len(lpos) - s
	if drop <= 0 || len(rem) < drop {
		return nil
	}
	perm := rng.Perm(len(rem))[:drop]
	dropSet := map[int]bool{}
	for _, i := range perm {
		dropSet[rem[i]] = true
	}
	var out []int
	for _, p := range lpos {
		if !dropSet[p] {
			out = append(out, p)
		}
	}
	return out
}

// TestIndexLemma8 checks the hierarchy invariant behind RefineC's scope
// (Lemma 8): for every layer subset L′ tried, C^d_{L′} only contains
// vertices with h(v) ≥ |L′|.
func TestIndexLemma8(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testutil.RandomCorrelatedGraph(rng, 8+rng.Intn(25), 2+rng.Intn(4), 0.3, 0.85, 0.08)
		d := 1 + rng.Intn(3)
		alive := bitset.NewFull(g.N())
		h := NewPrepared(g, 1).hierarchyFor(context.Background(), d).h

		for trial := 0; trial < 5; trial++ {
			size := 1 + rng.Intn(g.L())
			layers := testutil.RandomLayerSubset(rng, g.L(), size)
			ok := true
			kcore.DCC(g, alive, layers, d).ForEach(func(v int) bool {
				ok = h[v] >= int32(size)
				return ok
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
