package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"math"
	"os"
	"slices"
	"sync"
	"time"
)

// A span is one timed interval of one operation. All spans of an
// operation share Op; Parent is the ID of the enclosing span of the same
// operation, -1 for the operation's root. Times are nanoseconds since
// the recorder's epoch.
//
// Spans come in two kinds. Live spans (request, http, server) time the
// real request: the server span comes from a handler wrapper in this
// benchmark, so it nests inside the client's http span in real time.
// Replay spans time a direct call into one layer's exported function
// that repeats the work the server did for the operation (on a replica,
// after the window); the benchmark cannot see inside the program, so a
// replay's duration is laid inside its parent's interval instead of at
// its real time, and clipped to the parent when it overruns.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextID int
	server map[int]span // live server spans by operation, from the handler wrapper
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), server: map[int]span{}}
}

func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records a span and returns its ID.
func (r *recorder) add(op, parent int, name string, start, end int64, replay bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.nextID
	r.nextID++
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: start, End: end, Replay: replay})
	return id
}

// addServer records the live server span of op; the handler wrapper
// calls it from server goroutines, before the parent http span exists.
func (r *recorder) addServer(op int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.server[op] = span{Op: op, Parent: -1, Name: "server", Start: r.ns(start), End: r.ns(end)}
}

func (r *recorder) takeServer(op int) (span, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.server[op]
	delete(r.server, op)
	return s, ok
}

// layout places replayed durations inside [start, end): greedily on
// `lanes` parallel lanes (each duration on the lane that frees first),
// beginning at start. Intervals that overrun end are clipped to it, and
// clipped reports whether any was.
func layout(start, end int64, durs []int64, lanes int) (iv [][2]int64, clipped bool) {
	lanes = max(1, lanes)
	free := make([]int64, lanes)
	for i := range free {
		free[i] = start
	}
	iv = make([][2]int64, len(durs))
	for i, d := range durs {
		l := 0
		for j := range free {
			if free[j] < free[l] {
				l = j
			}
		}
		s, e := free[l], free[l]+d
		free[l] = e
		if e > end {
			e, clipped = end, true
		}
		if s > end {
			s = end
		}
		iv[i] = [2]int64{s, e}
	}
	return iv, clipped
}

// makespan returns how long durs take laid out from 0 on lanes lanes,
// with no end to clip them.
func makespan(durs []int64, lanes int) int64 {
	ivs, _ := layout(0, math.MaxInt64, durs, lanes)
	var end int64
	for _, iv := range ivs {
		end = max(end, iv[1])
	}
	return end
}

// covered returns how much of [start, end) the union of ivs covers.
func covered(start, end int64, ivs [][2]int64) int64 {
	s := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], start), min(iv[1], end)
		if a < b {
			s = append(s, [2]int64{a, b})
		}
	}
	slices.SortFunc(s, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var total, curS, curE int64
	open := false
	for _, iv := range s {
		if open && iv[0] <= curE {
			curE = max(curE, iv[1])
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv[0], iv[1], true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTimes computes, for one operation's spans, each span's self time
// (its duration minus the part of it its children cover) and its
// wall-time attribution. The attribution gives the root its duration
// and splits every span's covered time among its children in proportion
// to their durations, so parallel children (a batch's items on several
// lanes) share the wall time they overlap instead of counting it twice,
// and the attributions of all spans add up to the root's duration. For
// children that do not overlap, attribution equals self time.
func selfTimes(spans []span) (self, attr map[int]int64) {
	children := map[int][]span{}
	var root *span
	for i := range spans {
		if spans[i].Parent < 0 {
			root = &spans[i]
			continue
		}
		children[spans[i].Parent] = append(children[spans[i].Parent], spans[i])
	}
	self, attr = map[int]int64{}, map[int]int64{}
	if root == nil {
		return self, attr
	}
	var walk func(s span, wall float64)
	walk = func(s span, wall float64) {
		kids := children[s.ID]
		ivs := make([][2]int64, len(kids))
		var sum int64
		for i, k := range kids {
			ivs[i] = [2]int64{k.Start, k.End}
			sum += k.dur()
		}
		cov := covered(s.Start, s.End, ivs)
		self[s.ID] = s.dur() - cov
		if s.dur() <= 0 {
			attr[s.ID] = 0
			return
		}
		attr[s.ID] = int64(wall * float64(s.dur()-cov) / float64(s.dur()))
		share := wall * float64(cov) / float64(s.dur())
		for _, k := range kids {
			if sum > 0 {
				walk(k, share*float64(k.dur())/float64(sum))
			}
		}
	}
	walk(*root, float64(root.dur()))
	return self, attr
}

// write stores every recorded span, one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
