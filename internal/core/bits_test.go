package core

import (
	"math/rand"
	"testing"

	"hypermine/internal/table"
)

// TestSupportCountBitsMatchesScan: on an indexed table, SupportCount
// (bitset path) must agree with the scan fallback for random
// conjunctions of every length.
func TestSupportCountBitsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		tb := randTable(t, rng, 2+rng.Intn(6), 2+rng.Intn(4), 50+rng.Intn(400))
		ix := tb.Index()
		for rep := 0; rep < 50; rep++ {
			nItems := 1 + rng.Intn(min(4, tb.NumAttrs()))
			attrs := rng.Perm(tb.NumAttrs())[:nItems]
			items := make([]Item, nItems)
			for i, a := range attrs {
				items[i] = Item{Attr: a, Val: table.Value(1 + rng.Intn(tb.K()))}
			}
			bits := supportCountBits(ix, items)
			scan := supportCountScan(tb, items)
			if bits != scan {
				t.Fatalf("trial %d: supportCountBits=%d supportCountScan=%d for %v", trial, bits, scan, items)
			}
			if got := SupportCount(tb, items); got != scan {
				t.Fatalf("trial %d: SupportCount=%d, want %d", trial, got, scan)
			}
		}
	}
}

func intsEqual(a, b []int) bool {
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

func randTable(t *testing.T, rng *rand.Rand, nAttrs, k, rows int) *table.Table {
	t.Helper()
	attrs := make([]string, nAttrs)
	for j := range attrs {
		attrs[j] = "A" + string(rune('a'+j%26)) + string(rune('a'+j/26))
	}
	tb, err := table.New(attrs, k)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]table.Value, nAttrs)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = table.Value(1 + rng.Intn(k))
		}
		if err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}
