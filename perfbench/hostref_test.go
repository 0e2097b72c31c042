package main

import (
	"slices"
	"testing"
)

// TestRefPeelMatchesNaive checks the reference kernel's coreness against
// repeated removal of a minimum-degree vertex.
func TestRefPeelMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		n, m := 300, 1200
		g := newRefGraph(n, m, seed)
		s := newRefScratch(n)
		top := g.peel(s)

		deg := make([]int32, n)
		for v := range deg {
			deg[v] = g.off[v+1] - g.off[v]
		}
		removed := make([]bool, n)
		want := make([]int32, n)
		k := int32(0)
		for range n {
			v := -1
			for u := range deg {
				if !removed[u] && (v < 0 || deg[u] < deg[v]) {
					v = u
				}
			}
			k = max(k, deg[v])
			want[v], removed[v] = k, true
			for _, u := range g.adj[g.off[v]:g.off[v+1]] {
				if !removed[u] {
					deg[u]--
				}
			}
		}
		if !slices.Equal(s.deg, want) {
			t.Errorf("seed %d: coreness differs from naive peeling", seed)
		}
		if top != slices.Max(want) {
			t.Errorf("seed %d: peel returned %d, max coreness %d", seed, top, slices.Max(want))
		}
	}
}
