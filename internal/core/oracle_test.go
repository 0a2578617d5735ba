package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hypermine/internal/table"
	"hypermine/internal/testutil/oracle"
)

// countAll counts tb with kern the way the builder does (pairs, then
// one tail-pair block at a time) and returns the counts and every
// triple's k³ cells as cells[a][b][x], a < b < x.
func countAll(t testing.TB, tb *table.Table, kern *counter) (*Counts, [][][][]int32) {
	t.Helper()
	c, err := countPairs(context.Background(), tb, kern)
	if err != nil {
		t.Fatal(err)
	}
	n, kkk := c.n, c.k*c.k*c.k
	w := newWorkers(context.Background(), Config{Parallelism: 1}, c, kern)[0]
	cells := make([][][][]int32, n)
	for a := 0; a < n; a++ {
		cells[a] = make([][][]int32, n)
		for b := a + 1; b < n; b++ {
			var cs []int
			for x := b + 1; x < n; x++ {
				cs = append(cs, x)
			}
			dst := make([]int32, len(cs)*kkk)
			if err := kern.countBlock(c, a, b, cs, dst, w); err != nil {
				t.Fatal(err)
			}
			cells[a][b] = make([][]int32, n)
			for _, x := range cs {
				cells[a][b][x] = dst[(x-b-1)*kkk:][:kkk]
			}
		}
	}
	return c, cells
}

// TestCountKernelsMatchOracle: both counting kernels, at every k on
// either side of the crossover, give the joint counts of a row-by-row
// tally, and the ACVs derived from them equal the oracle's bit for bit.
// Small row counts leave value combinations empty, which exercises the
// popcount kernel's zero-cell skip and subtraction.
func TestCountKernelsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 18; trial++ {
		k := 2 + trial%9
		tb := randTable(t, rng, 5, k, 1+rng.Intn(300))
		n, rows := tb.NumAttrs(), tb.NumRows()
		for _, kern := range []*counter{{tb: tb}, {tb: tb, ix: tb.Index()}} {
			name := fmt.Sprintf("trial %d k=%d rows=%d popcount=%v", trial, k, rows, kern.ix != nil)
			c, cells := countAll(t, tb, kern)
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					want := make([]int32, k*k)
					for i := 0; i < rows; i++ {
						want[int(tb.At(i, a)-1)*k+int(tb.At(i, b)-1)]++
					}
					if got := c.pair[c.pairBase(a, b):][:k*k]; fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: pair (%d,%d) cells %v, want %v", name, a, b, got, want)
					}
				}
			}
			for a := 0; a < n; a++ {
				for x := 0; x < n; x++ {
					if a != x && c.edgeACV(a, x) != oracle.ACV(tb, []int{a}, x) {
						t.Fatalf("%s: ACV(%d->%d) = %v, oracle %v", name, a, x, c.edgeACV(a, x), oracle.ACV(tb, []int{a}, x))
					}
				}
			}
			m0, m1 := make([]int32, k*k), make([]int32, k*k)
			for a := 0; a < n; a++ {
				for b := a + 1; b < n; b++ {
					for x := b + 1; x < n; x++ {
						want := make([]int32, k*k*k)
						for i := 0; i < rows; i++ {
							want[(int(tb.At(i, a)-1)*k+int(tb.At(i, b)-1))*k+int(tb.At(i, x)-1)]++
						}
						if got := cells[a][b][x]; fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s: triple (%d,%d,%d) cells %v, want %v", name, a, b, x, got, want)
						}
						s0, s1, s2 := tripleSums(k, cells[a][b][x], m0, m1)
						for _, cand := range []struct {
							sum        int
							tail, head []int
						}{{s0, []int{b, x}, []int{a}}, {s1, []int{a, x}, []int{b}}, {s2, []int{a, b}, []int{x}}} {
							got, want := float64(cand.sum)/float64(rows), oracle.ACV(tb, cand.tail, cand.head[0])
							if got != want {
								t.Fatalf("%s: ACV(%v->%v) = %v, oracle %v", name, cand.tail, cand.head, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// hiddenStateTable draws rows from one hidden state per row: each
// attribute copies it with probability 1-noise (shifted by its index)
// or takes a uniform value, so mining admits some edges and not others.
func hiddenStateTable(t *testing.T, rng *rand.Rand, n, k, rows int, noise float64) *table.Table {
	t.Helper()
	data := make([][]table.Value, rows)
	for i := range data {
		h := rng.Intn(k)
		data[i] = make([]table.Value, n)
		for j := range data[i] {
			v := (h + j) % k
			if rng.Float64() < noise {
				v = rng.Intn(k)
			}
			data[i][j] = table.Value(1 + v)
		}
	}
	tb, err := table.FromRows(attrNames(n), k, data)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func attrNames(n int) []string {
	names := make([]string, n)
	for j := range names {
		names[j] = fmt.Sprintf("a%02d", j)
	}
	return names
}

func oracleParams(cfg Config) oracle.Params {
	cfg = cfg.withDefaults()
	return oracle.Params{
		GammaEdge: cfg.GammaEdge, GammaPair: cfg.GammaPair, GammaTriple: cfg.GammaTriple,
		MaxTailSize: cfg.MaxTailSize, EdgeSeeded: cfg.Candidates == EdgeSeeded,
	}
}

// TestBuildMatchesOracle: Build equals the naive oracle bit for bit —
// every EdgeACV, every admitted edge, its weight and its position —
// on both sides of the kernel crossover, for all three tail sizes,
// both candidate strategies and serial and parallel workers.
func TestBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sides := map[bool]bool{}
	for _, k := range []int{2, 3, 4, 5, 6, 7, 9, 10} {
		tb := hiddenStateTable(t, rng, 6, k, 100+rng.Intn(400), 0.5)
		sides[popcountWins(k, tb.NumRows())] = true
		for _, tail := range []int{1, 2, 3} {
			for _, cand := range []CandidateStrategy{AllPairs, EdgeSeeded} {
				cfg := Config{GammaEdge: 1.1, GammaPair: 1.03, MaxTailSize: tail, Candidates: cand}
				want := oracle.Mine(tb, oracleParams(cfg))
				for _, par := range []int{1, 3} {
					cfg.Parallelism = par
					m, err := Build(tb, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := want.Diff(m.EdgeACV, m.H); err != nil {
						t.Fatalf("k=%d rows=%d tail=%d cand=%d par=%d: %v", k, tb.NumRows(), tail, cand, par, err)
					}
				}
			}
		}
	}
	if !sides[true] || !sides[false] {
		t.Fatalf("matrix covers only one kernel: %v", sides)
	}
}

// plantedTable builds a table from a known hypergraph with exact
// value-combination frequencies, after the simulate-from-a-known-model
// pattern: A, C and D take every combination of values r times; copy
// i of a combination sets B = A for i < q, else A+1 (mod k), and
// E = C+D for i >= r-s, else C+D+1. So A and B determine each other
// with ACV q/r, any two of C, D, E determine the third with ACV s/r,
// and every other ACV is the baseline 1/k.
func plantedTable(t *testing.T, k, r, q, s int) *table.Table {
	t.Helper()
	var rows [][]table.Value
	for a := 0; a < k; a++ {
		for c := 0; c < k; c++ {
			for d := 0; d < k; d++ {
				for i := 0; i < r; i++ {
					b, e := a, c+d
					if i >= q {
						b++
					}
					if i < r-s {
						e++
					}
					rows = append(rows, []table.Value{
						table.Value(1 + a), table.Value(1 + b%k), table.Value(1 + c), table.Value(1 + d), table.Value(1 + e%k),
					})
				}
			}
		}
	}
	tb, err := table.FromRows([]string{"A", "B", "C", "D", "E"}, k, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestPlantedStructure: Build recovers exactly the planted edges of
// plantedTable, with their closed-form ACVs, and the oracle agrees.
func TestPlantedStructure(t *testing.T) {
	const r, q, s = 8, 6, 7
	for _, k := range []int{3, 9} {
		tb := plantedTable(t, k, r, q, s)
		cfg := Config{GammaEdge: 1.5, GammaPair: 1.5, Parallelism: 2}
		m, err := Build(tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		planted := []struct {
			tail []int
			head int
			acv  float64
		}{
			{[]int{0}, 1, float64(q) / r},
			{[]int{1}, 0, float64(q) / r},
			{[]int{2, 3}, 4, float64(s) / r},
			{[]int{2, 4}, 3, float64(s) / r},
			{[]int{3, 4}, 2, float64(s) / r},
		}
		if m.H.NumEdges() != len(planted) {
			t.Errorf("k=%d (popcount=%v): %d edges, want the %d planted", k, popcountWins(k, tb.NumRows()), m.H.NumEdges(), len(planted))
		}
		for _, e := range planted {
			w := m.H.Weight(e.tail, []int{e.head})
			if _, ok := m.H.Lookup(e.tail, []int{e.head}); !ok || math.Float64bits(w) != math.Float64bits(e.acv) {
				t.Errorf("k=%d: planted %v->%d has ACV %v (admitted %v), want %v", k, e.tail, e.head, w, ok, e.acv)
			}
		}
		if err := oracle.Mine(tb, oracleParams(cfg)).Diff(m.EdgeACV, m.H); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

// TestDeriveContextRejectsMismatchedCounts: DeriveContext derives only
// from counts of exactly the table given, with triples when the config
// needs them; on matching counts it equals Build.
func TestDeriveContextRejectsMismatchedCounts(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(14))
	tb := hiddenStateTable(t, rng, 5, 3, 80, 0.4)
	edgesOnly := Config{GammaEdge: 1.1, GammaPair: 1.03, MaxTailSize: 1, Parallelism: 2}
	c, err := CountContext(ctx, tb, edgesOnly)
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]struct {
		tb  *table.Table
		cfg Config
	}{
		"other rows":  {hiddenStateTable(t, rng, 5, 3, 81, 0.4), edgesOnly},
		"other attrs": {hiddenStateTable(t, rng, 6, 3, 80, 0.4), edgesOnly},
		"other k":     {hiddenStateTable(t, rng, 5, 4, 80, 0.4), edgesOnly},
		"no triples":  {tb, Config{GammaEdge: 1.1, GammaPair: 1.03, Parallelism: 2}},
	} {
		if _, _, err := DeriveContext(ctx, in.tb, in.cfg, c, nil); err == nil {
			t.Errorf("%s: DeriveContext accepted counts of another table", name)
		}
	}
	got, _, err := DeriveContext(ctx, tb, edgesOnly, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(tb, edgesOnly)
	if err != nil {
		t.Fatal(err)
	}
	sameModels(t, want, got)
}

// TestAddRowsRejectsMalformedRows: a row of the wrong width or with a
// value outside 1..k is an error, and leaves the counts unchanged.
func TestAddRowsRejectsMalformedRows(t *testing.T) {
	ctx := context.Background()
	tb := hiddenStateTable(t, rand.New(rand.NewSource(15)), 4, 3, 40, 0.4)
	cfg := Config{GammaEdge: 1.1, GammaPair: 1.03, Parallelism: 1}
	c, err := CountContext(ctx, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][][]table.Value{{{1, 2, 3}}, {{1, 2, 3, 1}, {1, 2, 4, 1}}, {{0, 1, 1, 1}}} {
		if err := c.AddRowsContext(ctx, rows); err == nil {
			t.Errorf("AddRowsContext accepted %v", rows)
		}
	}
	m, _, err := DeriveContext(ctx, tb, cfg, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameModels(t, want, m)
}
