package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
)

// spec.json holds what BENCHMARK.json has no room for: each workload's
// traffic (loop type, rates or clients, sizes, and the capacity the
// rates were derived from), keyed by workload name, and each metric's
// layer, what it measures, and the end-to-end metric and workload it
// should move, keyed by metric name. Names, units and better directions
// live only in BENCHMARK.json. The program reads its rates and sizes
// from spec.json, so the numbers documented there are the numbers run.
//
//go:embed spec.json
var specJSON []byte

type workloadSpec struct {
	Name string `json:"-"`    // the key of its entry
	Loop string `json:"loop"` // "closed" or "open"

	// Closed loop: Clients callers; every BatchEvery-th request handed
	// out is a batch of BatchSize queries, the rest single searches.
	Clients    int `json:"clients"`
	BatchEvery int `json:"batch_every"`

	// Open loop: searches arrive as a Poisson process at Rate requests/s
	// (conditioned on its count), a BatchShare of them batches of
	// BatchSize queries; updates of UpdateEdges edges arrive every
	// 1/UpdateRate seconds.
	Rate        float64 `json:"rate"`
	BatchShare  float64 `json:"batch_share"`
	BatchSize   int     `json:"batch_size"`
	UpdateRate  float64 `json:"update_rate"`
	UpdateEdges int     `json:"update_edges"` // immutable workloads: the write-path probe's batch size

	N       int   `json:"n"`
	Layers  int   `json:"layers"`
	Ds      []int `json:"ds"`
	Ss      []int `json:"ss"`
	K       int   `json:"k"`
	Mutable bool  `json:"mutable"`

	GraphSeed int64 `json:"-"` // from benchSpec.GraphSeed

	// Skewed traffic: query ranks are drawn from Zipf(ZipfS, ZipfV) over
	// the first Universe queries of the stream, against a result cache of
	// CacheEntries entries that untimed searches of the top ranks fill
	// before the window.
	Universe     int     `json:"universe"`
	ZipfS        float64 `json:"zipf_s"`
	ZipfV        float64 `json:"zipf_v"`
	CacheEntries int     `json:"cache_entries"`
}

type benchSpec struct {
	// GraphSeed generates every workload's graph: the graph stays the
	// same across --seed values, which vary the traffic only. Graphs drawn
	// from different seeds differ in how costly their queries are by more
	// than the benchmark's bounds.
	GraphSeed int64                   `json:"graph_seed"`
	Workloads map[string]workloadSpec `json:"workloads"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

// workload returns the named workload. An immutable workload's
// write-path probe borrows the batch size of the mutable workload, so
// both measure the same batch shape.
func (s *benchSpec) workload(name string) (workloadSpec, error) {
	w, ok := s.Workloads[name]
	if !ok {
		return workloadSpec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, slices.Sorted(maps.Keys(s.Workloads)))
	}
	w.Name, w.GraphSeed = name, s.GraphSeed
	if !w.Mutable {
		for _, o := range s.Workloads {
			if o.Mutable {
				w.UpdateEdges = o.UpdateEdges
			}
		}
	}
	return w, nil
}
