// Package oracle is a deliberately naive reference for the association
// hypergraph builder, for differential tests. It counts straight from
// the rows of a table, one ACV at a time, with a map from tail values
// to head-value counts, and shares no code with internal/core's
// counting path. It imports only table and hypergraph, so tests inside
// package core can use it without an import cycle.
package oracle

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"hypermine/internal/hypergraph"
	"hypermine/internal/table"
)

// ACV is ACV(tail, {head}) of Definition 3.5: for each combination of
// tail values seen in the rows, the count of its most frequent head
// value, summed and divided by the row count. An empty tail gives the
// baseline ACV(empty, {head}).
func ACV(tb *table.Table, tail []int, head int) float64 {
	counts := map[string]map[table.Value]int{}
	key := make([]byte, len(tail))
	for i := 0; i < tb.NumRows(); i++ {
		for j, a := range tail {
			key[j] = byte(tb.At(i, a))
		}
		heads := counts[string(key)]
		if heads == nil {
			heads = map[table.Value]int{}
			counts[string(key)] = heads
		}
		heads[tb.At(i, head)]++
	}
	sum := 0
	for _, heads := range counts {
		best := 0
		for _, n := range heads {
			best = max(best, n)
		}
		sum += best
	}
	return float64(sum) / float64(tb.NumRows())
}

// Params are the admission parameters of a build (core.Config after
// its defaults: MaxTailSize 1..3, GammaTriple set).
type Params struct {
	GammaEdge, GammaPair, GammaTriple float64
	MaxTailSize                       int
	EdgeSeeded                        bool
}

// Edge is one admitted hyperedge.
type Edge struct {
	Tail []int
	Head int
	ACV  float64
}

// Model is what a build must produce: the ACV of every ordered
// attribute pair (EdgeACV[a*n+c], 0 on the diagonal) and the admitted
// edges in the builder's order.
type Model struct {
	EdgeACV []float64
	Edges   []Edge
}

// Mine applies §3.2.1 and Definition 3.7 literally: every directed
// edge, then every 2-to-1 candidate in (tail, head) order, then every
// 3-to-1 candidate extended from an admitted 2-to-1 edge, each admitted
// iff its ACV is at least gamma times the largest ACV of the edges it
// extends.
func Mine(tb *table.Table, p Params) Model {
	n := tb.NumAttrs()
	m := Model{EdgeACV: make([]float64, n*n)}
	admitted := make([]bool, n*n)
	for c := 0; c < n; c++ {
		null := ACV(tb, nil, c)
		for a := 0; a < n; a++ {
			if a != c {
				m.EdgeACV[a*n+c] = ACV(tb, []int{a}, c)
				admitted[a*n+c] = m.EdgeACV[a*n+c] >= p.GammaEdge*null
			}
		}
	}
	for a := 0; a < n; a++ {
		for c := 0; c < n; c++ {
			if admitted[a*n+c] {
				m.Edges = append(m.Edges, Edge{[]int{a}, c, m.EdgeACV[a*n+c]})
			}
		}
	}
	if p.MaxTailSize < 2 {
		return m
	}
	var pairs []Edge
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := 0; c < n; c++ {
				if c == a || c == b || p.EdgeSeeded && !admitted[a*n+c] && !admitted[b*n+c] {
					continue
				}
				acv := ACV(tb, []int{a, b}, c)
				if acv >= p.GammaPair*max(m.EdgeACV[a*n+c], m.EdgeACV[b*n+c]) {
					pairs = append(pairs, Edge{[]int{a, b}, c, acv})
				}
			}
		}
	}
	m.Edges = append(m.Edges, pairs...)
	if p.MaxTailSize < 3 {
		return m
	}
	// Candidates as sorted tail a<b<c plus head d, in that order.
	seen := map[[4]int]bool{}
	var cands [][4]int
	for _, e := range pairs {
		for v := 0; v < n; v++ {
			if v == e.Tail[0] || v == e.Tail[1] || v == e.Head {
				continue
			}
			t := []int{e.Tail[0], e.Tail[1], v}
			sort.Ints(t)
			if c := [4]int{t[0], t[1], t[2], e.Head}; !seen[c] {
				seen[c] = true
				cands = append(cands, c)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return slices.Compare(cands[i][:], cands[j][:]) < 0 })
	for _, c := range cands {
		a, b, x, d := c[0], c[1], c[2], c[3]
		base := max(ACV(tb, []int{a, b}, d), ACV(tb, []int{a, x}, d), ACV(tb, []int{b, x}, d))
		if acv := ACV(tb, []int{a, b, x}, d); acv >= p.GammaTriple*base {
			m.Edges = append(m.Edges, Edge{[]int{a, b, x}, d, acv})
		}
	}
	return m
}

// Diff returns an error naming the first difference between the
// oracle model and a built one (its EdgeACV cache and hypergraph),
// comparing every weight bit for bit; nil when they are identical.
func (m Model) Diff(edgeACV []float64, h *hypergraph.H) error {
	if len(edgeACV) != len(m.EdgeACV) {
		return fmt.Errorf("EdgeACV has %d entries, oracle %d", len(edgeACV), len(m.EdgeACV))
	}
	for i, want := range m.EdgeACV {
		if math.Float64bits(edgeACV[i]) != math.Float64bits(want) {
			return fmt.Errorf("EdgeACV[%d] = %.17g, oracle %.17g", i, edgeACV[i], want)
		}
	}
	if h.NumEdges() != len(m.Edges) {
		return fmt.Errorf("%d edges, oracle %d", h.NumEdges(), len(m.Edges))
	}
	for i, want := range m.Edges {
		got := h.Edge(i)
		if !slices.Equal(got.Tail, want.Tail) || len(got.Head) != 1 || got.Head[0] != want.Head ||
			math.Float64bits(got.Weight) != math.Float64bits(want.ACV) {
			return fmt.Errorf("edge %d is %v->%v (%.17g), oracle %v->%d (%.17g)",
				i, got.Tail, got.Head, got.Weight, want.Tail, want.Head, want.ACV)
		}
	}
	return nil
}
