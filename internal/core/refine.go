package core

import (
	"repro/internal/bitset"
	"repro/internal/kcore"
)

// refineU shrinks the parent's potential vertex set U^d_L to U^d_{L′}
// (Fig 9). L′ splits into Class 1 layers M (positions below the largest
// missing position, which no descendant can drop) and Class 2 layers N
// (the rest):
//
//   - Rule 2: a vertex surviving in some descendant C^d_S with |S| = s
//     must belong to the d-cores of at least s − |M| layers of N.
//   - Rule 1: it must have degree ≥ d inside U on every layer of M.
//
// The global per-layer d-cores do not change while U shrinks, so Rule 2
// needs a single pass, after which Rule 1 is exactly a multi-layer peel;
// the combination reaches the same fixpoint as the paper's repeat-until
// loop.
//
// pinned is the parent's exact d-CC C^d_L (L′ ⊂ L). It lies in U′: it is
// in U by the search invariant; each member sits in the reduced d-core
// of every layer of L ⊇ N, so it passes Rule 2 (|N| = |L′| − |M| ≥
// s − |M|); and it is d-dense on M ⊆ L. The Rule 1 peel therefore pins
// it (kcore.PinnedDCC).
func (t *tdSearch) refineU(u, pinned *bitset.Set, lpos []int) *bitset.Set {
	p := t.prep
	maxMissing := maxMissingPos(lpos, p.g.L())
	var mLayers []int
	var nPos []int
	for _, pos := range lpos {
		if pos < maxMissing {
			mLayers = append(mLayers, p.order[pos])
		} else {
			nPos = append(nPos, pos)
		}
	}

	cur := u.Clone()
	if need := p.opts.S - len(mLayers); need > 0 {
		counts := t.scratchCounts
		cur.ForEach(func(v int) bool {
			counts[v] = 0
			return true
		})
		for _, pos := range nPos {
			core := p.cores[p.order[pos]]
			cur.ForEach(func(v int) bool {
				if core.Contains(v) {
					counts[v]++
				}
				return true
			})
		}
		cur.Clone().ForEach(func(v int) bool {
			if int(counts[v]) < need {
				cur.Remove(v)
			}
			return true
		})
	}
	if len(mLayers) == 0 {
		return cur
	}
	p.stats.dccCalls.Add(1)
	out, _ := kcore.PinnedDCC(p.g, cur, pinned, mLayers, p.opts.D, nil)
	return out
}

// maxMissingPos returns max([l] − L) over search positions, or -1 when L
// is the full position set. lpos must be sorted ascending.
func maxMissingPos(lpos []int, l int) int {
	want := l - 1
	for i := len(lpos) - 1; i >= 0; i-- {
		if lpos[i] != want {
			break
		}
		want--
	}
	return want
}

// removablePos returns the positions of L that may still be dropped in
// descendants: {j ∈ L : j > max([l] − L)} (§V-A). lpos must be sorted.
func removablePos(lpos []int, l int) []int {
	mm := maxMissingPos(lpos, l)
	var out []int
	for _, pos := range lpos {
		if pos > mm {
			out = append(out, pos)
		}
	}
	return out
}

// refineC computes the exact C^d_{L′} inside the potential set U (Fig 10)
// as one pinned peel over the Lemma 8 scope Z = U ∩ {v : h(v) ≥ |L′|}.
//
// pinned is the parent's exact d-CC C^d_L, L′ ⊂ L. Every member of it is
// in C^d_{L′} (C^d_L is d-dense on L′ ⊆ L) and in Z: it lies in U by the
// search invariant and has h(v) ≥ |L| > |L′| by Lemma 8, since it is
// d-dense on |L| layers. So the peel never needs to count or test it;
// only the rest of the scope is peeled, against the pinned vertices as
// fixed neighbours (see DESIGN.md § RefineC: a pinned peel).
//
// Cancellation: the peel polls the query context on a stride. On
// interruption the counters are abandoned mid-cascade, so the only valid
// partial is the empty set (the truncated flags are set by interrupted()
// itself).
func (t *tdSearch) refineC(u, pinned *bitset.Set, lpos []int) *bitset.Set {
	p := t.prep
	need := int32(len(lpos))

	// Lemma 8 scope. The scope set lives in query scratch — it is consumed
	// only within this call, so clearing on entry suffices.
	z := t.scratchZ
	z.Clear()
	u.ForEach(func(v int) bool {
		if p.h[v] >= need {
			z.Add(v)
		}
		return true
	})
	p.stats.dccCalls.Add(1)
	out, _ := kcore.PinnedDCC(p.g, z, pinned, p.layersOf(lpos), p.opts.D, p.interrupted)
	return out
}
