package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestGeneratorDeterministic(t *testing.T) {
	for _, s := range []shape{shapeK3, shapeK10} {
		a, err := genTable(7, s)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genTable(7, s)
		c, _ := genTable(8, s)
		if a.NumRows() != s.rows || a.NumAttrs() != s.attrs || a.K() != s.k {
			t.Fatalf("%s: got %dx%d k=%d", s.name, a.NumRows(), a.NumAttrs(), a.K())
		}
		same, differs := true, false
		for j := 0; j < s.attrs; j++ {
			same = same && reflect.DeepEqual(a.Column(j), b.Column(j))
			differs = differs || !reflect.DeepEqual(a.Column(j), c.Column(j))
		}
		if !same {
			t.Errorf("%s: the same seed gave different tables", s.name)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same table", s.name)
		}
	}
	r1 := genRows(rand.New(rand.NewSource(3)), 5, 20, 3)
	r2 := genRows(rand.New(rand.NewSource(3)), 5, 20, 3)
	r3 := genRows(rand.New(rand.NewSource(4)), 5, 20, 3)
	if !reflect.DeepEqual(r1, r2) || reflect.DeepEqual(r1, r3) {
		t.Error("appended rows are not a function of the seed alone")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Start: 0, End: 100},
		// Two overlapping children cover 10..50 once, not twice.
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 50},
		// A child running past its parent counts only inside it.
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild reduces its parent, not the root.
		{Name: "a1", ID: 5, Parent: 2, Start: 15, End: 25},
		// A child nested inside another child is already covered.
		{Name: "b1", ID: 6, Parent: 1, Start: 32, End: 35},
	}
	got := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 20, 4: 30, 5: 10, 6: 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 100}, {19, 100}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {999, 95},
		{1000, 99}, {1999, 99}, {2000, 99.5}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Nearest rank: p99 of 1..1000 is 990, leaving exactly ten above it.
	if got := percentile(append([]float64(nil), xs...), 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	// Two windows, 1..1000 and 1001..2000: p99s 990 and 1990.
	two := append(append([]float64(nil), xs...), xs...)
	for i := 1000; i < 2000; i++ {
		two[i] += 1000
	}
	if got := windowTails(two, 1000); !reflect.DeepEqual(got, []float64{990, 1990}) {
		t.Errorf("windowTails = %v, want [990 1990]", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metrics the
// benchmark reports in step.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range phaseShares {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, benchmark runs %v", names, want)
	}
	var e2e, layers []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range f.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer()) {
		t.Errorf("per_layer %v, benchmark reports %v", layers, perLayer())
	}
}

// TestSlowdownFlagged injects a read slowdown the size of read_p50_ms's
// bound into the benchmark's own member-handler wrapper. Comparing
// medians of sets of runs, with half the bound as the threshold, must
// flag it, and must not flag a second set of runs of the same code.
// The three sets share one fleet and take turns run by run, rotating
// which goes first, so a change in the host's load between runs lands
// on all three alike.
func TestSlowdownFlagged(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet and reads for about 25 seconds")
	}
	bound := math.NaN()
	for _, m := range readBenchmarkFile(t).EndToEnd {
		if m.Name == "read_p50_ms" {
			bound = m.Bound
		}
	}
	if math.IsNaN(bound) {
		t.Fatal("BENCHMARK.json has no read_p50_ms bound")
	}
	var tl tally
	var delay atomic.Int64
	e, err := setup(11, nil, &delay, &tl)
	if err != nil {
		t.Fatal(err)
	}
	defer e.c.close()
	rng := rand.New(rand.NewSource(12))
	conn := newConn()
	defer closeConn(conn)
	readP50 := func(d time.Duration) float64 {
		delay.Store(int64(d))
		defer delay.Store(0)
		return median(closedLoop(e, rng, conn, 1.5, &tl))
	}
	// A first run sizes the slowdown and warms the connections.
	injected := time.Duration(bound * readP50(0) * float64(time.Millisecond))
	const runs = 5
	var base, again, slowed []float64
	for i := 0; i < runs; i++ {
		for j := 0; j < 3; j++ {
			switch (i + j) % 3 {
			case 0:
				base = append(base, readP50(0))
			case 1:
				again = append(again, readP50(0))
			case 2:
				slowed = append(slowed, readP50(injected))
			}
		}
	}
	if n := tl.failed.Load(); n != 0 {
		t.Fatalf("%d operations failed", n)
	}
	b, a, s := median(base), median(again), median(slowed)
	t.Logf("read p50: %.4f ms, again %.4f ms, with %v injected %.4f ms (bound %g)", b, a, injected, s, bound)
	if d := math.Abs(a-b) / b; d > bound/2 {
		t.Errorf("two sets of runs of the same code differ by %.1f%%, flagged at %.1f%%", 100*d, 50*bound)
	}
	if d := (s - b) / b; d <= bound/2 {
		t.Errorf("a %.0f%% slowdown moved read p50 by only %.1f%%, not flagged at %.1f%%", 100*bound, 100*d, 50*bound)
	}
}
