package kcore

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/multilayer"
	"repro/internal/testutil"
)

// benchGraph is the shared fixture of the package benchmarks: dense
// enough that the peels have real cascades, small enough for -benchtime
// smoke runs in CI.
func benchGraph(b *testing.B) (*graphFixture, []int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := testutil.RandomCorrelatedGraph(rng, 600, 6, 0.1, 0.85, 0.1)
	layers := make([]int, g.L())
	for i := range layers {
		layers[i] = i
	}
	coreness := make([][]int, g.L())
	maxc := 0
	for i := range coreness {
		coreness[i] = Coreness(g, i, nil)
		for _, c := range coreness[i] {
			if c > maxc {
				maxc = c
			}
		}
	}
	return &graphFixture{g: g, coreness: coreness, maxc: maxc}, layers
}

type graphFixture struct {
	g        *multilayer.Graph
	coreness [][]int
	maxc     int
}

// BenchmarkDCC measures the flat O(m) peel over the full vertex set and
// all layers — the innermost primitive of every search.
func BenchmarkDCC(b *testing.B) {
	fx, layers := benchGraph(b)
	full := bitset.NewFull(fx.g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DCC(fx.g, full, layers, 4)
	}
}

// BenchmarkPinnedDCC measures the top-down child peel: one layer fewer
// than BenchmarkDCC, with the all-layer d-CC (the parent's core) pinned.
func BenchmarkPinnedDCC(b *testing.B) {
	fx, layers := benchGraph(b)
	full := bitset.NewFull(fx.g.N())
	parent := DCC(fx.g, full, layers, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PinnedDCC(fx.g, full, parent, layers[1:], 2, nil)
	}
}

// BenchmarkCoreness measures the unmasked bin-sort core decomposition of
// a single layer.
func BenchmarkCoreness(b *testing.B) {
	fx, _ := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Coreness(fx.g, 0, nil)
	}
}

// BenchmarkTrackerInitPerD measures maxc+1 independent coreness-seeded
// tracker initializations — the per-d cost the shared sweep replaces.
func BenchmarkTrackerInitPerD(b *testing.B) {
	fx, _ := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 1; d <= fx.maxc+1; d++ {
			NewTrackerFromCoreness(fx.g, d, fx.coreness, 1)
		}
	}
}

// BenchmarkTrackerInitSweep measures the same maxc+1 tracker
// initializations derived incrementally from one Sweep over the nested
// level sets.
func BenchmarkTrackerInitSweep(b *testing.B) {
	fx, _ := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := NewSweep(fx.g, fx.coreness, 1)
		for d := 1; d <= fx.maxc+1; d++ {
			sw.TrackerAt(d)
		}
	}
}
