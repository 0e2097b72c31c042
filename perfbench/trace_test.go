package main

import (
	"testing"
)

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		name string
		ivs  [][2]int64
		want int64
	}{
		{"none", nil, 0},
		{"inside", [][2]int64{{2, 5}}, 3},
		{"disjoint", [][2]int64{{1, 3}, {6, 8}}, 4},
		{"overlapping", [][2]int64{{1, 5}, {3, 7}}, 6},
		{"nested", [][2]int64{{1, 9}, {2, 3}}, 8},
		{"clipped to parent", [][2]int64{{-5, 2}, {8, 20}}, 4},
		{"outside", [][2]int64{{20, 30}}, 0},
	} {
		if got := covered(0, 10, c.ivs); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLayout(t *testing.T) {
	ivs, clipped := layout(100, 200, []int64{30, 20, 10}, 1)
	want := [][2]int64{{100, 130}, {130, 150}, {150, 160}}
	if clipped || !equalIvs(ivs, want) {
		t.Errorf("one lane: %v clipped=%v, want %v", ivs, clipped, want)
	}
	ivs, clipped = layout(100, 200, []int64{30, 20, 10}, 2)
	want = [][2]int64{{100, 130}, {100, 120}, {120, 130}}
	if clipped || !equalIvs(ivs, want) {
		t.Errorf("two lanes: %v clipped=%v, want %v", ivs, clipped, want)
	}
	ivs, clipped = layout(100, 150, []int64{40, 40}, 1)
	want = [][2]int64{{100, 140}, {140, 150}}
	if !clipped || !equalIvs(ivs, want) {
		t.Errorf("overrun: %v clipped=%v, want %v clipped", ivs, clipped, want)
	}
}

func TestMakespan(t *testing.T) {
	for _, c := range []struct {
		durs  []int64
		lanes int
		want  int64
	}{
		{nil, 1, 0},
		{[]int64{30, 20, 10}, 1, 60},
		{[]int64{30, 20, 10}, 2, 30},
		{[]int64{30, 20, 10}, 8, 30},
		{[]int64{10, 10, 10, 10}, 2, 20},
	} {
		if got := makespan(c.durs, c.lanes); got != c.want {
			t.Errorf("makespan(%v, %d) = %d, want %d", c.durs, c.lanes, got, c.want)
		}
	}
}

func equalIvs(a, b [][2]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tree builds request(0..100) > http(10..100) > server(20..90) with the
// given children of server.
func tree(kids ...span) []span {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "http", Start: 10, End: 100},
		{ID: 2, Parent: 1, Name: "server", Start: 20, End: 90},
	}
	return append(spans, kids...)
}

func TestSelfTimesSequential(t *testing.T) {
	spans := tree(
		span{ID: 3, Parent: 2, Name: "engine.search", Start: 20, End: 60},
		span{ID: 4, Parent: 3, Name: "core.search", Start: 20, End: 55},
		span{ID: 5, Parent: 2, Name: "engine.cachekey", Start: 60, End: 61},
	)
	self, attr := selfTimes(spans)
	want := map[int]int64{0: 10, 1: 20, 2: 29, 3: 5, 4: 35, 5: 1}
	var sum int64
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
		if attr[id] != w {
			t.Errorf("attr[%d] = %d, want the self time %d for non-overlapping children", id, attr[id], w)
		}
		sum += self[id]
	}
	if sum != 100 {
		t.Errorf("self times add up to %d, want the request's 100", sum)
	}
}

func TestSelfTimesParallelChildrenShareWallTime(t *testing.T) {
	// Two batch items on two lanes, both covering server 20..60.
	spans := tree(
		span{ID: 3, Parent: 2, Name: "engine.search", Start: 20, End: 60},
		span{ID: 4, Parent: 2, Name: "engine.search", Start: 20, End: 60},
	)
	self, attr := selfTimes(spans)
	if self[2] != 30 {
		t.Errorf("server self = %d, want 70 - 40 covered = 30", self[2])
	}
	if self[3] != 40 || self[4] != 40 {
		t.Errorf("item self = %d, %d, want 40 each", self[3], self[4])
	}
	if attr[3] != 20 || attr[4] != 20 {
		t.Errorf("item attribution = %d, %d, want the 40 covered split 20/20", attr[3], attr[4])
	}
	var sum int64
	for _, a := range attr {
		sum += a
	}
	if sum != 100 {
		t.Errorf("attributions add up to %d, want the request's 100", sum)
	}
}
