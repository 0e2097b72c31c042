// Package core implements the three DCCS algorithms of the paper:
//
//   - GreedyDCCS (GD-DCCS, Fig 2): materializes every candidate d-CC and
//     greedily selects k of them; approximation ratio 1 − 1/e.
//   - BottomUpDCCS (BU-DCCS, Figs 3 & 7): interleaves candidate generation
//     with top-k maintenance over a bottom-up layer-subset search tree,
//     pruned by Lemmas 2–4; approximation ratio 1/4.
//   - TopDownDCCS (TD-DCCS, Figs 8–11): searches the layer-subset tree from
//     the full layer set downward, maintaining potential vertex sets that
//     are refined by RefineU/RefineC inside the scope of a removal
//     hierarchy, pruned by Lemmas 5–7; approximation ratio 1/4. Intended
//     for s ≥ l/2.
//
// All algorithms share the preprocessing of §IV-C: vertex deletion, layer
// sorting and result initialization (InitTopK, Appendix D), each of which
// can be disabled through Options for the Fig 28 ablation.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/multilayer"
)

// Options configures a DCCS run. D, S and K are the problem parameters;
// the remaining fields are preprocessing and pruning toggles used by the
// ablation experiments and by tests. The zero value of every toggle
// selects the paper's default behaviour.
type Options struct {
	// D is the minimum degree threshold d ≥ 1.
	D int
	// S is the minimum support threshold: candidates are d-CCs w.r.t.
	// layer subsets of exactly this size, 1 ≤ S ≤ l(G).
	S int
	// K is the number of diversified d-CCs to return, K ≥ 1.
	K int
	// Seed drives the run's random choices (Lemma 7 descendant
	// selection). Runs with equal seeds are fully deterministic.
	Seed int64

	// Workers selects the execution engine. 1 runs everything on the
	// calling goroutine — today's fully serial path. N > 1 runs the
	// parallel engine with N workers: candidate materialization
	// (GreedyDCCS's C(l,s) enumeration), preprocessing's per-layer core
	// decompositions, and the first level of the bottom-up/top-down
	// search trees are sharded across the pool.
	//
	// 0 (the zero value) is automatic: the deterministic stages —
	// greedy materialization and per-layer cores, whose parallel output
	// is bit-for-bit identical to the serial one — use GOMAXPROCS
	// workers, while the Seed-sensitive BU/TD tree searches stay on the
	// serial path, so the zero value reproduces serial results exactly.
	// Opt in with an explicit Workers > 1 to also fan out the search
	// trees. Each first-level subtree then searches against its own
	// local top-k seeded from a shared snapshot and the results are
	// merged at a barrier, so those runs are deterministic for a fixed
	// Seed — independent of N and of goroutine scheduling — but may
	// select a different, equally valid, top-k than the serial search
	// (see DESIGN.md for why the pruning stays sound). The only
	// exception is MaxTreeNodes: a shared node budget makes the
	// truncation point scheduling-dependent. Negative values behave
	// like 1.
	Workers int

	// NoVertexDeletion disables the vertex-deletion preprocessing
	// (Fig 28's No-VD).
	NoVertexDeletion bool
	// NoSortLayers disables the layer-sorting preprocessing (No-SL).
	NoSortLayers bool
	// NoInitResult disables result initialization via InitTopK (No-IR).
	NoInitResult bool

	// NoEq1Pruning disables the Eq. (1) search-tree pruning of Lemma 2
	// (bottom-up) and Lemma 5 (top-down).
	NoEq1Pruning bool
	// NoOrderPruning disables the sorted early-termination pruning of
	// Lemma 3 (bottom-up) and Lemma 6 (top-down).
	NoOrderPruning bool
	// NoLayerPruning disables the Lemma 4 layer exclusion (bottom-up).
	NoLayerPruning bool
	// NoPotentialPruning disables the Lemma 7 random-descendant shortcut
	// (top-down).
	NoPotentialPruning bool

	// MaxTreeNodes, when positive, bounds the number of search-tree nodes
	// the bottom-up and top-down algorithms expand. The DCCS problem is
	// NP-complete and the bottom-up tree over 2^l layer subsets can be
	// genuinely huge at large s (the paper's own Fig 15 reports runs of
	// 10³–10⁵ seconds); a budget turns that into an anytime search. When
	// the budget is hit, the result reflects the candidates examined so
	// far and Stats.Truncated is set — the approximation guarantee no
	// longer applies.
	MaxTreeNodes int

	// OnCandidate, when non-nil, is invoked with every candidate that
	// improves the temporary top-k result set, in improvement order — an
	// incremental progress stream for servers pushing partial answers.
	// The CC's slices are copies owned by the callback, safe to retain
	// or mutate. Streamed candidates are genuine d-CCs but not commitments: later
	// Rule 2 replacements may evict them from the final result, and under
	// a parallel search (Workers > 1) the hook fires concurrently from
	// worker goroutines reporting their subtree-local improvements, so
	// the callback must be safe for concurrent use. The exact solver does
	// not stream (its branch-and-bound has no monotone incumbent set).
	OnCandidate func(CC)
}

// MaterializeWorkers resolves Workers for the deterministic parallel
// stages (greedy candidate materialization, per-layer core
// decomposition), whose parallel output is identical to the serial one:
// the zero value already means "use the hardware".
func (o Options) MaterializeWorkers() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// searchWorkers resolves Workers for the Seed-sensitive BU/TD tree
// searches, which can reach a different (valid) top-k than the serial
// path: parallelism there is opt-in, so the zero value stays serial.
func (o Options) searchWorkers() int {
	if o.Workers < 2 {
		return 1
	}
	return o.Workers
}

// Validate checks the options against a graph.
func (o Options) Validate(g *multilayer.Graph) error {
	if g == nil {
		return errors.New("dccs: nil graph")
	}
	if o.D < 1 {
		return fmt.Errorf("dccs: degree threshold d = %d, want ≥ 1", o.D)
	}
	if o.S < 1 || o.S > g.L() {
		return fmt.Errorf("dccs: support threshold s = %d, want 1 ≤ s ≤ %d", o.S, g.L())
	}
	if o.K < 1 {
		return fmt.Errorf("dccs: result count k = %d, want ≥ 1", o.K)
	}
	return nil
}

// Canonical Stats.Algorithm values, the single source the public
// Algorithm constants alias; each entry point stamps its own name.
const (
	AlgoNameGreedy = "greedy"
	AlgoNameBU     = "bu"
	AlgoNameTD     = "td"
	AlgoNameExact  = "exact"
)

// CC is one d-coherent core in a result: the maximal vertex set that is
// d-dense on every layer in Layers.
type CC struct {
	// Layers is the sorted set of layer indices (in the graph's original
	// layer numbering) the core is coherent on; |Layers| = s.
	Layers []int
	// Vertices is the sorted vertex set of the core.
	Vertices []int32
}

// Stats reports search effort, used to verify the paper's pruning claims
// and drive the ablation benches.
type Stats struct {
	// PreprocessRemoved counts vertices removed by vertex deletion.
	PreprocessRemoved int
	// TreeNodes counts expanded search-tree nodes (BU/TD) or enumerated
	// layer subsets (GD).
	TreeNodes int
	// Candidates counts size-s d-CCs generated and offered to the result
	// set (for GD: collected into F).
	Candidates int
	// DCCCalls counts invocations of the dCC / RefineC procedures.
	DCCCalls int
	// Updates counts successful result-set updates.
	Updates int
	// Pruned counts subtrees eliminated by the pruning lemmas.
	Pruned int
	// Truncated reports that the search stopped before the tree was
	// exhausted — by the Options.MaxTreeNodes budget, by context
	// cancellation, or by a deadline. The result is still valid; the
	// approximation guarantee no longer applies.
	Truncated bool
	// Interrupted reports that the stop was caused by the query context
	// (cancellation or deadline) rather than the node budget. Implies
	// Truncated.
	Interrupted bool
	// Algorithm records which algorithm actually ran: "greedy", "bu",
	// "td" or "exact". Auto-selection (including the silent bottom-up
	// fallback for graphs beyond the top-down layer limit) is thereby
	// visible in the result.
	Algorithm string
	// Elapsed is the wall-clock duration of the run, including
	// preprocessing.
	Elapsed time.Duration
}

// Result is the output of a DCCS algorithm.
type Result struct {
	// Cores are the selected d-CCs, at most k of them. GreedyDCCS lists
	// them in greedy selection order; the search algorithms sort them by
	// layer set.
	Cores []CC
	// CoverSize is |Cov(R)|, the number of distinct vertices covered.
	CoverSize int
	// Stats describes the search effort.
	Stats Stats
}
