// Command hmbench is hypermine's end-to-end benchmark. It drives the
// program the way its three kinds of user do — mining a table, reading
// a served model through the fleet router, and appending rows to a live
// model while others read — and measures every layer from outside,
// by timing calls into the layers' public functions.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash hmbench/run.sh --workload serve|churn --seed N --seconds S --trace 0|1
//
// Every run sets up, mines, serves and churns; the workload decides
// which phase gets most of the seconds. With --trace 0 the last line of
// standard output is a JSON object carrying every end-to-end metric;
// with --trace 1 it carries every per-layer metric, and the spans are
// written to trace-<workload>-<seed>.jsonl beside the binary. A human-readable
// report goes to standard error. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// phaseShares splits a run's seconds between the mine, serve and churn
// phases. Churn keeps a third of every run: its latencies are the most
// dispersed, and the fewest samples would make them the least steady.
// There is no mining-led workload: mining was the steadiest phase with
// a fifth of each run, and the time went into longer runs instead.
var phaseShares = map[string][3]float64{
	"serve": {0.2, 0.45, 0.35},
	"churn": {0.2, 0.2, 0.6},
}

// Nominal costs, measured when the benchmark was written and fixed
// since, turn a phase's seconds into a fixed amount of work, so each
// run of a workload does the same work and takes the same samples.
const (
	mineIterSeconds   = 0.27 // one k3 and one k10 iteration
	churnCycleSeconds = 0.42 // one PUT and three appends
	setups            = 5    // set-ups per run; setup_s is their median
	rounds            = 3    // turns each phase takes in an untraced run
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints the human-readable lines.
type report struct {
	metrics map[string]metric
	notes   []string
	spans   []span // traced run: spans already taken from the recorder
}

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "serve or churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 40, "seconds to measure")
	traceFlag := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	shares, ok := phaseShares[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: hmbench --workload serve|churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := run(*workload, *seed, *seconds, shares, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(workload string, seed int64, seconds float64, shares [3]float64, traced bool) (*result, error) {
	ctx := context.Background()
	var t tally
	rep := &report{metrics: map[string]metric{}}
	rep.note("workload %s seed %d seconds %g traced %v: nproc %d GOMAXPROCS %d %s",
		workload, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	e, err := setupRepeatedly(seed, rec, &t, rep)
	if err != nil {
		return nil, err
	}
	defer e.c.close()

	mine := newMinePhase(seed, traced, &t)
	churn := newChurnPhase(e, &t)
	mineIters := max(1, int(math.Round(shares[0]*seconds/mineIterSeconds/rounds)))
	cycles := max(2, int(math.Round(shares[2]*seconds/churnCycleSeconds/rounds)))
	took := map[string]float64{}
	timed := func(phase string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		took[phase] += time.Since(t0).Seconds()
		runtime.GC()
		return err
	}

	if traced {
		if err := tracedRun(ctx, e, mine, churn, mineIters*rounds, cycles*rounds, shares[1]*seconds, rec, &t, rep); err != nil {
			return nil, err
		}
		spans := rec.take()
		bin, err := os.Executable()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(filepath.Dir(bin), fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
		if err := writeJSONL(path, append(rep.spans, spans...)); err != nil {
			return nil, err
		}
		rep.note("wrote %d spans to %s (%d dropped)", len(rep.spans)+len(spans), path, rec.dropped.Load())
	} else {
		serve := newServePhase(e)
		defer serve.close()
		// The phases take turns in rounds, so a burst of load from
		// outside the benchmark lands on a part of every phase instead of
		// the whole of one.
		for r := 0; r < rounds; r++ {
			if err := timed("mine", func() error { return mine.run(ctx, mineIters) }); err != nil {
				return nil, err
			}
			_ = timed("serve", func() error { serve.slice(shares[1]*seconds/rounds, &t); return nil })
			if err := timed("churn", func() error { return churn.run(cycles) }); err != nil {
				return nil, err
			}
			if r < rounds-1 {
				if err := e.reset(&t); err != nil {
					return nil, err
				}
			}
		}
		rep.note("phases took: mine %.2f s, serve %.2f s, churn %.2f s", took["mine"], took["serve"], took["churn"])
		rep.set("build_k3_s", median(mine.build[shapeK3.name]), "s")
		rep.set("build_k10_s", median(mine.build[shapeK10.name]), "s")
		rep.set("first_answer_s", median(mine.first), "s")

		rep.set("read_p50_ms", median(serve.closed), "ms")
		rep.set("read_goodput_rps", serve.goodput(), "1/s")
		rep.note("closed loop: %d reads, p50 %.3f ms", len(serve.closed), median(serve.closed))
		for _, st := range serve.rungs {
			rep.note("rung %g/s: %d requests, p50 %.3f ms, tail %.3f ms (p%g of each %d, median of %d windows), generator lag p50 %.3f ms, final backlog wait %.3f ms, %.0f answered/s, pass %v",
				st.rate, len(st.lat), median(st.lat), st.tail(), tailPercentile(tailWindow), tailWindow, len(st.lat)/tailWindow,
				median(st.lag), median(st.waits), float64(st.answered)/st.secs, st.pass())
		}

		rep.set("append_p50_ms", median(churn.allApp), "ms")
		pct := tailPercentile(len(churn.allApp))
		rep.set("append_tail_ms", percentile(append([]float64(nil), churn.allApp...), pct), "ms")
		rep.set("put_p50_ms", median(churn.putMs), "ms")
		readTails := windowTails(churn.readMs, churnTailWindow)
		rep.set("churn_read_tail_ms", median(readTails), "ms")
		rep.note("mine: %d iterations per shape", mineIters*rounds)
		rep.note("churn: %d cycles; append_tail_ms is p%g of %d appends; churn_read_tail_ms is p%g of each %d of %d reads, median of %d windows",
			cycles*rounds, pct, len(churn.allApp), tailPercentile(churnTailWindow), churnTailWindow, len(churn.readMs), len(readTails))
	}

	want := endToEnd
	if traced {
		want = perLayer()
	}
	for _, m := range want {
		got, ok := rep.metrics[m.name]
		if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	if len(rep.metrics) != len(want) {
		return nil, errors.New("a metric was measured that the benchmark does not declare")
	}
	printReport(rep)
	return &result{
		Correct:   t.mismatches.Load() == 0,
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics:   rep.metrics,
	}, nil
}

// setupRepeatedly sets the fleet up setups times, tearing down all but
// the last, and reports the median set-up seconds and the median live
// heap after each set-up.
func setupRepeatedly(seed int64, rec *recorder, t *tally, rep *report) (*env, error) {
	var secs, heap []float64
	var e *env
	for i := 0; i < setups; i++ {
		if e != nil {
			e.c.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setup(seed, rec, nil, t); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = append(heap, float64(ms.HeapAlloc)/(1<<20))
	}
	if rec == nil {
		rep.set("setup_s", median(secs), "s")
		rep.set("resident_mb", median(heap), "MB")
	}
	return e, nil
}

func printReport(rep *report) {
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "#", n)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
