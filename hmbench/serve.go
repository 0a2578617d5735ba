package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"time"
)

// The open-loop rate ladder, fixed once from the capacity measured when
// the benchmark was written (about 10,000 reads/s through the router
// on two CPUs) and never recomputed per commit. Each rung's latency is
// reported on standard error. The last rung offers three times that
// capacity, so both connections always have a request waiting and its
// answers per second are the fleet's capacity, free to move either
// way; its share sets how many requests it sends, which take about
// that share of the phase at today's capacity. The rest of the phase
// is the closed loop read_p50_ms is taken from (closedShare).
var (
	ladderRates  = []float64{1000, 3000, 6000, 30000}
	ladderShares = []float64{0.1, 0.3, 0.1, 0.15} // of the phase's seconds
)

// closedShare is the share of the serve phase's seconds spent on one
// caller that sends its next read as soon as the previous answer
// arrives; closedNominalRate is the reads/s that caller made when the
// benchmark was written, which fixes how many reads it sends. Its
// median is read_p50_ms. The open-loop median at 3000/s (about 0.33
// ms on two shared CPUs, against 0.18 ms for the closed loop) is
// mostly the time to wake idle threads on each arrival, which the
// host's other tenants move: over ten runs of each workload while they
// loaded the host, its IQR/median was 0.17 (serve) and 0.31 (churn),
// against 0.08 and 0.14 for the closed loop in the same runs, which
// keeps the threads awake.
const (
	closedShare       = 0.35
	closedNominalRate = 5000
)

const (
	refRung      = 1 // the rate the traced run reads at
	overloadRung = 3
	nominalRate  = 10000 // reads/s the overload rung's request count assumes
)

const (
	// tailWindow is the window the read tail is taken over: p90 of
	// each 100 requests (10 samples beyond it), median over windows.
	// On a shared two-CPU host the p99 of 1000-request windows moved by
	// a third between slices of one run, and the p95 of 200-request
	// windows doubled between runs when other tenants loaded the host;
	// this tail moves about as much as the median does.
	tailWindow = 100
	// churnTailWindow is the window the read tail during churn is
	// taken over: p99 of each 1000 reads. Up to a tenth of those reads
	// wait on an artefact a write has just made cold, so a p95 would
	// land on the edge between the warm and the cold reads.
	churnTailWindow = 1000
	// latencyLimit is the read-tail limit a rung must meet to pass.
	latencyLimit = 10 * time.Millisecond
	// backlogLimit bounds the median time the last tenth of a slice's
	// requests waited for a free connection. Past capacity that wait
	// grows to hundreds of milliseconds within a slice; a burst of
	// outside load adds a few.
	backlogLimit = 10 * time.Millisecond
)

// rungStats accumulates one rate of the ladder over every slice of the
// run that sent at that rate.
type rungStats struct {
	rate     float64
	lat      []float64 // ms, every request
	lag      []float64 // ms, generator lateness of every request
	waits    []float64 // ms, median backlog wait of each slice's last tenth
	failed   int       // failed or wrong answers
	answered int       // correct answers
	secs     float64   // seconds from each slice's start to its last answer
}

// addSlice sends min(rate, nominalRate)×seconds reads from the mix at
// Poisson arrivals and adds them to the rung.
func (st *rungStats) addSlice(e *env, rng *rand.Rand, conns []*http.Client, seconds float64, rec *recorder, t *tally) {
	n := max(int(min(st.rate, nominalRate)*seconds), 1)
	qs := drawMix(rng, e.pool, n)
	ss := openLoop(e.c.routerURL, conns, qs, poisson(rng, st.rate, n), rec)
	var wait []float64
	last := time.Duration(0)
	for i, s := range ss {
		t.op(!s.err, "read "+kindNames[s.kind]+" failed")
		if !s.err {
			t.check(s.ok, "read "+kindNames[s.kind]+" answered unlike the reference")
		}
		if s.ok {
			st.answered++
		} else {
			st.failed++
		}
		st.lat = append(st.lat, ms(s.lat))
		st.lag = append(st.lag, ms(s.lag))
		if i >= n-n/10 {
			wait = append(wait, ms(s.wait))
		}
		last = max(last, s.done)
	}
	st.waits = append(st.waits, median(wait))
	st.secs += last.Seconds()
}

// tail is the median over consecutive windows of tailWindow requests
// of each window's tail.
func (st *rungStats) tail() float64 { return median(windowTails(st.lat, tailWindow)) }

// pass reports whether the rung met the latency limit with every
// answer correct and no growing backlog.
func (st *rungStats) pass() bool {
	return st.failed == 0 && st.tail() <= ms(latencyLimit) && median(st.waits) <= ms(backlogLimit)
}

// closedLoop sends seconds×closedNominalRate reads from the mix over
// conn, each as soon as the previous answer arrived, and returns their
// latencies in milliseconds.
func closedLoop(e *env, rng *rand.Rand, conn *http.Client, seconds float64, t *tally) []float64 {
	qs := drawMix(rng, e.pool, max(int(closedNominalRate*seconds), 1))
	lat := make([]float64, 0, len(qs))
	for _, q := range qs {
		t0 := time.Now()
		r, err := read(conn, e.c.routerURL, q, spanRef{})
		d := time.Since(t0)
		ok := err == nil && r.status == http.StatusOK
		t.op(ok, "read "+kindNames[q.kind]+" failed")
		if ok {
			t.check(bytes.Equal(r.body, q.ref), "read "+kindNames[q.kind]+" answered unlike the reference")
		}
		lat = append(lat, ms(d))
	}
	return lat
}

// servePhase sends the read ladder and the closed loop in slices spread
// over the run.
type servePhase struct {
	e      *env
	rng    *rand.Rand
	conns  []*http.Client
	rungs  []*rungStats
	closed []float64 // ms, every closed-loop read
}

func newServePhase(e *env) *servePhase {
	p := &servePhase{e: e, rng: rand.New(rand.NewSource(e.seed + 2)), conns: []*http.Client{newConn(), newConn()}}
	for _, r := range ladderRates {
		p.rungs = append(p.rungs, &rungStats{rate: r})
	}
	return p
}

// slice sends one slice at every rate of the ladder, with the closed
// loop after the 3000/s rung.
func (p *servePhase) slice(seconds float64, t *tally) {
	for i, st := range p.rungs {
		st.addSlice(p.e, p.rng, p.conns, seconds*ladderShares[i], nil, t)
		if i == refRung {
			p.closed = append(p.closed, closedLoop(p.e, p.rng, p.conns[0], seconds*closedShare, t)...)
		}
	}
}

func (p *servePhase) close() {
	for _, c := range p.conns {
		closeConn(c)
	}
}

// goodput is the correct answers per second at the overload rung.
func (p *servePhase) goodput() float64 {
	st := p.rungs[overloadRung]
	return float64(st.answered) / st.secs
}
