package kcore

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/testutil"
)

// checkPinnedPeel draws a random graph, S, d and layers ⊆ layers′, pins a
// random subset of DCC(S, layers′) — which DCC(S, layers) contains — and
// checks that the pinned peel equals the unpinned one and leaves its
// scratch all-zero. n, l, dens and pinPct only shape the instance.
func checkPinnedPeel(seed int64, n, l, d, dens, pinPct int) error {
	rng := rand.New(rand.NewSource(seed))
	g := testutil.RandomCorrelatedGraph(rng, n, l, 0.05+float64(dens)/100, 0.8, 0.05)
	S := bitset.New(n)
	for v := 0; v < n; v++ {
		if rng.Intn(10) < 8 {
			S.Add(v)
		}
	}
	wide := testutil.RandomLayerSubset(rng, l, 1+rng.Intn(l))
	layers := append([]int(nil), wide[:1+rng.Intn(len(wide))]...)
	pinned := bitset.New(n)
	DCC(g, S, wide, d).ForEach(func(v int) bool {
		if rng.Intn(100) < pinPct {
			pinned.Add(v)
		}
		return true
	})

	want := DCC(g, S, layers, d)
	if !want.Equal(naiveDCC(g, S, layers, d)) {
		return fmt.Errorf("unpinned peel disagrees with the naive fixpoint")
	}
	sc := getDCCScratch(n, len(layers))
	got, ok := sc.peel(g, S, pinned, layers, d, nil)
	if !ok || !got.Equal(want) {
		return fmt.Errorf("layers=%v ⊆ %v, |pinned|=%d: pinned peel %v, want %v", layers, wide, pinned.Count(), got.Slice(), want.Slice())
	}
	for v, st := range sc.state {
		if st != stOutside {
			return fmt.Errorf("scratch state[%d] = %d after the peel, want 0", v, st)
		}
	}
	if got, _ := PinnedDCC(g, S, pinned, layers, d, nil); !got.Equal(want) {
		return fmt.Errorf("PinnedDCC differs from the scratch peel")
	}
	return nil
}

func TestPinnedDCCMatchesDCC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		err := checkPinnedPeel(seed, 2+rng.Intn(40), 1+rng.Intn(5), 1+rng.Intn(4), rng.Intn(40), rng.Intn(101))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func FuzzPinnedDCC(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(3), uint8(2), uint8(20), uint8(50))
	f.Add(int64(7), uint8(40), uint8(6), uint8(3), uint8(35), uint8(100))
	f.Add(int64(-3), uint8(2), uint8(1), uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n, l, d, dens, pinPct uint8) {
		err := checkPinnedPeel(seed, 1+int(n%64), 1+int(l%8), 1+int(d%5), int(dens%60), int(pinPct%101))
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestPinnedDCCStop checks the cancellation contract: once stop reports
// true the peel returns the empty set and false, with its scratch reset.
func TestPinnedDCCStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testutil.RandomGraph(rng, 3000, 2, 0.002)
	S := bitset.NewFull(g.N())
	layers := []int{0, 1}
	polls := 0
	stop := func() bool { polls++; return true }

	sc := getDCCScratch(g.N(), len(layers))
	got, ok := sc.peel(g, S, nil, layers, 8, stop)
	if ok || !got.Empty() || polls != 1 {
		t.Fatalf("stopped peel: ok=%v |out|=%d polls=%d, want false, 0, 1", ok, got.Count(), polls)
	}
	for v, st := range sc.state {
		if st != stOutside {
			t.Fatalf("scratch state[%d] = %d after an aborted peel", v, st)
		}
	}
	if got, ok := PinnedDCC(g, S, nil, layers, 8, func() bool { return false }); !ok || !got.Equal(DCC(g, S, layers, 8)) {
		t.Fatal("a stop that never fires changed the result")
	}
}
