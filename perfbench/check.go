package main

import (
	"context"
	"fmt"
	"slices"
	"sync"

	dccs "repro"
	"repro/internal/pool"
	"repro/internal/server"
)

// distinctAnswers maps each answered query's key to its fully decoded
// answer, and reports every key answered differently twice: the engine
// is deterministic, so one query must always get one answer. Repeated
// answers were decoded without their cores, so only covers compare.
func distinctAnswers(outs []*outcome) (map[string]answer, map[string]string) {
	first := map[string]answer{}
	covers := map[string]int{}
	bad := map[string]string{}
	for _, o := range outs {
		if o.err != "" {
			continue
		}
		for _, a := range o.answers {
			if a.err != "" || a.truncated {
				continue
			}
			k := a.q.key()
			cover, ok := covers[k]
			if !ok {
				covers[k] = a.cover
			} else if cover != a.cover {
				bad[k] = fmt.Sprintf("%s answered twice differently (cover %d vs %d)", k, cover, a.cover)
			}
			if a.full {
				first[k] = a
			}
		}
	}
	return first, bad
}

func sameCores(a []server.SearchCC, b []server.SearchCC) bool {
	return slices.EqualFunc(a, b, func(x, y server.SearchCC) bool {
		return slices.Equal(x.Layers, y.Layers) && slices.Equal(x.Vertices, y.Vertices)
	})
}

func resultCores(res *dccs.Result) []server.SearchCC {
	out := make([]server.SearchCC, len(res.Cores))
	for i, c := range res.Cores {
		out[i] = server.SearchCC{Layers: c.Layers, Vertices: c.Vertices}
	}
	return out
}

// checkAnswers checks every distinct answer against graph g: it must
// pass dccs.Validate, and its cover and cores must equal a direct Search
// of the same query on ref, an engine the server never touched. Results
// in known (from replays) are used instead of searching again. It
// returns the keys that failed, with the reason.
func checkAnswers(g *dccs.Graph, ref *dccs.Engine, answers map[string]answer, known map[string]*dccs.Result, workers int) map[string]string {
	keys := make([]string, 0, len(answers))
	for k := range answers {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var mu sync.Mutex
	bad := map[string]string{}
	pool.Run(workers, len(keys), func(i int) {
		a := answers[keys[i]]
		if msg := checkOne(g, ref, a, known[keys[i]]); msg != "" {
			mu.Lock()
			bad[keys[i]] = msg
			mu.Unlock()
		}
	})
	return bad
}

func checkOne(g *dccs.Graph, ref *dccs.Engine, a answer, want *dccs.Result) string {
	got := &dccs.Result{CoverSize: a.cover, Cores: make([]dccs.CC, len(a.cores))}
	for i, c := range a.cores {
		got.Cores[i] = dccs.CC{Layers: c.Layers, Vertices: c.Vertices}
	}
	if err := dccs.Validate(g, a.q.options(), got); err != nil {
		return fmt.Sprintf("%s: %v", a.q.key(), err)
	}
	if want == nil {
		var err error
		if want, err = ref.Search(context.Background(), a.q.engineQuery()); err != nil {
			return fmt.Sprintf("%s: reference search: %v", a.q.key(), err)
		}
	}
	if want.CoverSize != a.cover || !sameCores(resultCores(want), a.cores) {
		return fmt.Sprintf("%s: cover %d, reference engine %d", a.q.key(), a.cover, want.CoverSize)
	}
	return ""
}

// markFailed flags every operation that carried a failed answer.
func markFailed(outs []*outcome, bad map[string]string) {
	for _, o := range outs {
		for _, a := range o.answers {
			if _, ok := bad[a.q.key()]; ok {
				o.failedCorrectness = true
			}
		}
	}
}
