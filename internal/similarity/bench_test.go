package similarity_test

import (
	"testing"

	"hypermine/internal/benchfix"
	"hypermine/internal/hypergraph"
	"hypermine/internal/similarity"
)

// BenchmarkInSim measures one in-similarity evaluation on a dense
// random hypergraph.
func BenchmarkInSim(b *testing.B) {
	h := benchfix.RandomHypergraph(3, 60, 5000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = similarity.InSim(h, i%60, (i+1)%60)
	}
}

// BenchmarkOutSim measures one out-similarity evaluation.
func BenchmarkOutSim(b *testing.B) {
	h := benchfix.RandomHypergraph(3, 60, 5000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = similarity.OutSim(h, i%60, (i+1)%60)
	}
}

// BenchmarkBuildGraph measures full similarity-graph construction —
// the O(n^2) pre-step of Figure 5.3 — at default (GOMAXPROCS)
// parallelism: on a random 40-vertex hypergraph, and on the served
// k3 model (benchfix.ModelWorkload(30, 20000)).
func BenchmarkBuildGraph(b *testing.B) {
	for _, w := range graphWorkloads() {
		b.Run(w.name, func(b *testing.B) {
			h := w.h()
			all := allVertices(h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := similarity.BuildGraph(h, all); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildGraphSerial pins Parallelism to 1, quantifying the
// worker-pool speedup of the default BuildGraph.
func BenchmarkBuildGraphSerial(b *testing.B) {
	for _, w := range graphWorkloads() {
		b.Run(w.name, func(b *testing.B) {
			h := w.h()
			all := allVertices(h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := similarity.BuildGraphParallel(h, all, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type graphWorkload struct {
	name string
	h    func() *hypergraph.H
}

func graphWorkloads() []graphWorkload {
	return []graphWorkload{
		{"random40", func() *hypergraph.H { return benchfix.RandomHypergraph(3, 40, 2000, 2) }},
		{"k3model", func() *hypergraph.H { return benchfix.ModelWorkload(30, 20000).H }},
	}
}

func allVertices(h *hypergraph.H) []int {
	all := make([]int, h.NumVertices())
	for i := range all {
		all[i] = i
	}
	return all
}
