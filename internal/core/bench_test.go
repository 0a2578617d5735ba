package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hypermine/internal/table"
)

func benchTable(b *testing.B, n, k, rows int) *table.Table {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	attrs := make([]string, n)
	for j := range attrs {
		attrs[j] = "A" + string(rune('a'+j%26)) + string(rune('a'+j/26))
	}
	tb, err := table.New(attrs, k)
	if err != nil {
		b.Fatal(err)
	}
	row := make([]table.Value, n)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = table.Value(1 + rng.Intn(k))
		}
		if err := tb.AppendRow(row); err != nil {
			b.Fatal(err)
		}
	}
	return tb
}

// BenchmarkCountBlock measures counting one tail-pair block of triple
// cells (28 triples over 20000 rows) with each kernel at each k; the
// crossover it shows is what popcountWins encodes.
func BenchmarkCountBlock(b *testing.B) {
	for _, k := range []int{2, 3, 4, 5, 6, 7, 8, 10} {
		tb := benchTable(b, 30, k, 20000)
		for _, kern := range []*counter{{tb: tb, ix: tb.Index()}, {tb: tb}} {
			name := fmt.Sprintf("k%d/scan", k)
			if kern.ix != nil {
				name = fmt.Sprintf("k%d/popcount", k)
			}
			b.Run(name, func(b *testing.B) {
				c, err := countPairs(context.Background(), tb, kern)
				if err != nil {
					b.Fatal(err)
				}
				w := newWorkers(context.Background(), Config{Parallelism: 1}, c, kern)[0]
				cs := make([]int, 0, 28)
				for x := 2; x < 30; x++ {
					cs = append(cs, x)
				}
				dst := make([]int32, len(cs)*k*k*k)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := kern.countBlock(c, 0, 1, cs, dst, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSupportCountScan / BenchmarkSupportCountBits compare the
// two SupportCount paths on a 3-item conjunction over 50k rows.
func supportCountBenchItems(b *testing.B) (*table.Table, []Item) {
	tb := benchTable(b, 8, 3, 50000)
	return tb, []Item{{Attr: 0, Val: 1}, {Attr: 3, Val: 2}, {Attr: 6, Val: 3}}
}

func BenchmarkSupportCountScan(b *testing.B) {
	tb, items := supportCountBenchItems(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = supportCountScan(tb, items)
	}
	b.SetBytes(int64(tb.NumRows()))
}

func BenchmarkSupportCountBits(b *testing.B) {
	tb, items := supportCountBenchItems(b)
	ix := tb.Index()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = supportCountBits(ix, items)
	}
	b.SetBytes(int64(tb.NumRows()))
}

// BenchmarkBuildAssociationTable measures full AT construction, the
// unit of work of classifier preparation and rule mining: a 2000-row
// k=5 table (the scan kernel wins there), and a two-attribute tail with
// the head between its attributes at the k3 mining shape (30
// attributes, 20000 rows), counted by popcount over the built TID index
// and by a row scan of an index-less copy.
func BenchmarkBuildAssociationTable(b *testing.B) {
	k3 := benchTable(b, 30, 3, 20000)
	k3.Index()
	for _, w := range []struct {
		name string
		tb   *table.Table
	}{{"k5", benchTable(b, 3, 5, 2000)}, {"popcount", k3}, {"scan", k3.Clone()}} {
		tail, head := []int{0, 1}, 2
		if w.tb.NumAttrs() > 3 {
			tail, head = []int{3, 17}, 9
		}
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildAssociationTable(w.tb, tail, head); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildModel measures end-to-end model construction at the
// two mining shapes of the repository benchmark: k3 (30 attributes,
// 20000 rows) runs the popcount kernel and k10 (20 attributes, 5000
// rows) the row-scan kernel.
func BenchmarkBuildModel(b *testing.B) {
	for _, s := range []struct {
		name       string
		n, k, rows int
	}{{"k3", 30, 3, 20000}, {"k10", 20, 10, 5000}} {
		b.Run(s.name, func(b *testing.B) {
			tb := benchTable(b, s.n, s.k, s.rows)
			tb.Index()
			cfg := Config{GammaEdge: 1, GammaPair: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(tb, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
