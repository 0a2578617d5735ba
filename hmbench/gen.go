package main

import (
	"bytes"
	"math/rand"
	"strconv"

	"hypermine/internal/core"
	"hypermine/internal/table"
)

// shape is one mining input size: attrs columns by rows observations
// over values 1..k.
type shape struct {
	name  string
	attrs int
	rows  int
	k     int
}

var (
	// shapeK3 takes the TID-bitset counting path (k <= 8); it is also
	// the served model of the serve and churn phases.
	shapeK3 = shape{"k3", 30, 20000, 3}
	// shapeK10 takes the scalar-kernel fallback (k > 8).
	shapeK10 = shape{"k10", 20, 5000, 10}
)

// mineConfig is the mining configuration of the benchfix ModelWorkload
// the repository's serving benchmarks have always used.
var mineConfig = core.Config{GammaEdge: 1.0, GammaPair: 1.0}

// attrNames names attribute j as benchfix does ("Aaa", "Aba", ...).
func attrNames(n int) []string {
	names := make([]string, n)
	for j := range names {
		names[j] = "A" + string(rune('a'+j%26)) + string(rune('a'+j/26))
	}
	return names
}

// genRows draws n rows of the benchfix ModelWorkload shape: each row
// has a base value, and each cell keeps it with probability 2/3 or
// takes a uniform value otherwise, so attributes are correlated and
// mining admits edges.
func genRows(rng *rand.Rand, attrs, n, k int) [][]table.Value {
	rows := make([][]table.Value, n)
	for i := range rows {
		row := make([]table.Value, attrs)
		base := table.Value(1 + rng.Intn(k))
		for j := range row {
			if rng.Intn(3) == 0 {
				row[j] = table.Value(1 + rng.Intn(k))
			} else {
				row[j] = base
			}
		}
		rows[i] = row
	}
	return rows
}

// genTable builds a fresh table of shape s from seed. The same seed
// always yields the same table.
func genTable(seed int64, s shape) (*table.Table, error) {
	rng := rand.New(rand.NewSource(seed))
	return table.FromRows(attrNames(s.attrs), s.k, genRows(rng, s.attrs, s.rows, s.k))
}

// rowsCSV renders rows under the table's header, the text/csv body the
// :append endpoint takes.
func rowsCSV(attrs []string, rows [][]table.Value) []byte {
	var b bytes.Buffer
	for j, a := range attrs {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a)
	}
	b.WriteByte('\n')
	for _, row := range rows {
		for j, v := range row {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(int(v)))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}
