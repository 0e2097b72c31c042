// Benchmarks: one per table/figure of the paper's evaluation (§VI,
// Figs 12–32), each running the corresponding experiment end to end on a
// reduced-scale dataset, plus micro-benchmarks of the core primitives.
// The dccs-bench command runs the same experiments at full scale.
package dccs_test

import (
	"io"
	"testing"

	dccs "repro"
	"repro/internal/bench"
	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/datasets"
	"repro/internal/kcore"
)

// benchSuite returns a suite sized for testing.B iteration counts.
func benchSuite() *bench.Suite {
	return &bench.Suite{Scale: 0.05, Seed: 1, Quick: true, W: io.Discard}
}

func runFig(b *testing.B, fig int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		if err := s.Run(fig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12DatasetStats(b *testing.B)     { runFig(b, 12) }
func BenchmarkFig13Parameters(b *testing.B)       { runFig(b, 13) }
func BenchmarkFig14TimeSmallS(b *testing.B)       { runFig(b, 14) }
func BenchmarkFig15TimeLargeS(b *testing.B)       { runFig(b, 15) }
func BenchmarkFig16CoverSmallS(b *testing.B)      { runFig(b, 16) }
func BenchmarkFig17CoverLargeS(b *testing.B)      { runFig(b, 17) }
func BenchmarkFig18TimeVaryDSmallS(b *testing.B)  { runFig(b, 18) }
func BenchmarkFig19TimeVaryDLargeS(b *testing.B)  { runFig(b, 19) }
func BenchmarkFig20CoverVaryDSmallS(b *testing.B) { runFig(b, 20) }
func BenchmarkFig21CoverVaryDLargeS(b *testing.B) { runFig(b, 21) }
func BenchmarkFig22TimeVaryKSmallS(b *testing.B)  { runFig(b, 22) }
func BenchmarkFig23TimeVaryKLargeS(b *testing.B)  { runFig(b, 23) }
func BenchmarkFig24CoverVaryKSmallS(b *testing.B) { runFig(b, 24) }
func BenchmarkFig25CoverVaryKLargeS(b *testing.B) { runFig(b, 25) }
func BenchmarkFig26ScaleVertices(b *testing.B)    { runFig(b, 26) }
func BenchmarkFig27ScaleLayers(b *testing.B)      { runFig(b, 27) }
func BenchmarkFig28Preprocessing(b *testing.B)    { runFig(b, 28) }
func BenchmarkFig29MiMAGComparison(b *testing.B)  { runFig(b, 29) }
func BenchmarkFig30Containment(b *testing.B)      { runFig(b, 30) }
func BenchmarkFig31InducedSubgraphs(b *testing.B) { runFig(b, 31) }
func BenchmarkFig32ProteinComplexes(b *testing.B) { runFig(b, 32) }

// --- Micro-benchmarks of the substrates -------------------------------

func benchGraph(b *testing.B) *datasets.Dataset {
	b.Helper()
	return datasets.Author(1)
}

func BenchmarkCoreDecomposition(b *testing.B) {
	g := benchGraph(b).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.Coreness(g, i%g.L(), nil)
	}
}

func BenchmarkDCCQueuePeel(b *testing.B) {
	g := benchGraph(b).Graph
	full := bitset.NewFull(g.N())
	layers := []int{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.DCC(g, full, layers, 3)
	}
}

func BenchmarkDCCBinSort(b *testing.B) {
	g := benchGraph(b).Graph
	full := bitset.NewFull(g.N())
	layers := []int{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.DCCBin(g, full, layers, 3)
	}
}

func BenchmarkCoverageUpdate(b *testing.B) {
	n := 10000
	sets := make([][]int32, 64)
	for i := range sets {
		start := (i * 137) % (n - 600)
		vs := make([]int32, 500)
		for j := range vs {
			vs[j] = int32(start + j)
		}
		sets[i] = vs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := coverage.New(n, 10)
		for _, s := range sets {
			tk.Update(s, nil)
		}
	}
}

// --- Algorithm benchmarks on the two small paper datasets -------------

func benchAlgo(b *testing.B, algo func(*dccs.Graph, dccs.Options) (*dccs.Result, error), opts dccs.Options) {
	b.Helper()
	g := benchGraph(b).Graph
	if opts.S == 0 {
		opts.S = g.L() / 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyAuthor(b *testing.B) {
	benchAlgo(b, dccs.Greedy, dccs.Options{D: 3, K: 10, Seed: 1})
}

func BenchmarkBottomUpAuthor(b *testing.B) {
	benchAlgo(b, dccs.BottomUp, dccs.Options{D: 3, K: 10, Seed: 1})
}

func BenchmarkTopDownAuthor(b *testing.B) {
	benchAlgo(b, dccs.TopDown, dccs.Options{D: 3, K: 10, Seed: 1})
}

// Ablation benches for the pruning lemmas inside BU-DCCS (DESIGN.md).
func BenchmarkBottomUpPruned(b *testing.B) {
	benchAlgo(b, dccs.BottomUp, dccs.Options{D: 3, S: 3, K: 10, Seed: 1})
}

func BenchmarkBottomUpNoPruning(b *testing.B) {
	benchAlgo(b, dccs.BottomUp, dccs.Options{
		D: 3, S: 3, K: 10, Seed: 1,
		NoEq1Pruning: true, NoOrderPruning: true, NoLayerPruning: true,
	})
}

func BenchmarkPreprocessOnVsOff(b *testing.B) {
	b.Run("with-preprocessing", func(b *testing.B) {
		benchAlgo(b, dccs.BottomUp, dccs.Options{D: 3, S: 3, K: 10, Seed: 1})
	})
	b.Run("no-preprocessing", func(b *testing.B) {
		benchAlgo(b, dccs.BottomUp, dccs.Options{
			D: 3, S: 3, K: 10, Seed: 1,
			NoVertexDeletion: true, NoSortLayers: true, NoInitResult: true,
		})
	})
}

func BenchmarkSearchStatsOverhead(b *testing.B) {
	// End-to-end Search on the PPI graph: the public-API entry point.
	ds := datasets.PPI(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dccs.Search(ds.Graph, dccs.Options{D: 4, S: 4, K: 10, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Property-3 sanity inside a benchmark loop: coverage is monotone
// non-increasing in s. Behavioural benches double as cheap invariant
// checks because b.N loops re-run the full pipeline.
func BenchmarkCoverMonotoneInS(b *testing.B) {
	ds := datasets.PPI(1)
	for i := 0; i < b.N; i++ {
		prev := 1 << 30
		for s := 1; s <= 4; s++ {
			res, err := dccs.BottomUp(ds.Graph, dccs.Options{D: 3, S: s, K: 5, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if res.CoverSize > prev {
				b.Fatalf("coverage grew with s: %d > %d", res.CoverSize, prev)
			}
			prev = res.CoverSize
		}
	}
}
