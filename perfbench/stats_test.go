package main

import (
	"math"
	"testing"
)

func TestRank(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want int
	}{
		{50, 1, 0},
		{50, 2, 0},
		{50, 3, 1},
		{50, 100, 49},
		{90, 100, 89},
		{99, 100, 98},
		{99, 1000, 989},
		{100, 7, 6},
	} {
		if got := rank(c.p, c.n); got != c.want {
			t.Errorf("rank(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestSupported(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{90, 100, true},  // 10 samples beyond rank 89
		{90, 99, false},  // 9 beyond
		{99, 1000, true}, // 10 beyond rank 989
		{99, 999, false},
		{50, 20, true}, // rank 9, indices 10..19 beyond
		{50, 19, false},
		{90, 0, false},
	} {
		if got := supported(c.p, c.n); got != c.want {
			t.Errorf("supported(%v, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 90); got != 5 {
		t.Errorf("p90 = %v, want 5", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input")
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("p50 of nothing = %v, want NaN", got)
	}
}

func TestAddTailsReportsTailOnlyWithSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	var m metrics
	addTails(&m, "search", xs, 90, 99)
	if len(m.list) != 0 {
		t.Fatalf("99 samples: got %+v, want no tail", m.list)
	}
	addTails(&m, "search", append(xs, 99), 90, 99)
	if len(m.list) != 1 || m.list[0].name != "search_p90_ms" || m.list[0].value != 89 || m.list[0].n != 100 {
		t.Fatalf("100 samples: got %+v, want p90 = 89 with its sample count, and no p99", m.list)
	}
}

func TestCoverMeanBalancesClasses(t *testing.T) {
	a := func(d, s int, seed int64, source string, cover int) answer {
		return answer{q: query{D: d, S: s, K: 10, Seed: seed}, source: source, cover: cover}
	}
	got, n := coverMean([]answer{
		a(2, 2, 1, "engine", 100),
		a(2, 2, 2, "engine", 200),
		a(2, 2, 2, "engine", 200), // the same query again
		a(2, 2, 3, "cache", 900),  // not engine-computed
		a(3, 2, 1, "engine", 1000),
	})
	// Class (2,2) averages 150 and class (3,2) 1000: 575, not the
	// unbalanced (100+200+1000)/3.
	if got != 575 || n != 3 {
		t.Errorf("coverMean = %v over %d answers, want 575 over 3", got, n)
	}
	if got, n := coverMean(nil); got != 0 || n != 0 {
		t.Errorf("coverMean(nil) = %v, %d, want 0, 0", got, n)
	}
}
