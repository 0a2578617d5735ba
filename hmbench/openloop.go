package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is the outcome of one open-loop request.
type sample struct {
	kind int
	// lat runs from when the request was due to its last response
	// byte, whatever delayed the send: a busy connection or a late
	// generator.
	lat  time.Duration
	lag  time.Duration // generator lateness, a diagnostic: send minus when it could have been sent
	wait time.Duration // time due with every connection busy (the backlog)
	ok   bool          // 200 with the expected body
	err  bool          // transport error or non-200
	done time.Duration // completion, relative to the schedule's start
}

// poisson returns n arrival offsets of a Poisson process at rate/s.
func poisson(rng *rand.Rand, rate float64, n int) []time.Duration {
	offs := make([]time.Duration, n)
	t := 0.0
	for i := range offs {
		t += rng.ExpFloat64() / rate
		offs[i] = time.Duration(t * 1e9)
	}
	return offs
}

// sleepUntil sleeps to t with a one-microsecond timer slack on the
// calling thread, and gives the thread its own slack back before the
// runtime may run the program's goroutines on it. The runtime's timers
// wake about a millisecond late on Linux, which would swamp the
// sub-millisecond latencies measured here.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	const prSetTimerSlack, prGetTimerSlack = 29, 30
	runtime.LockOSThread()
	slack, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, slack, 0)
	runtime.UnlockOSThread()
}

// openLoop sends qs[i] at offs[i] after the start through base, over
// the given connections (each one sends its next request only after
// the previous one completed, so a slow system makes later requests
// wait, and that wait is counted). With rec on, each request gets a
// root span named "client/<kind>".
func openLoop(base string, conns []*http.Client, qs []*query, offs []time.Duration, rec *recorder) []sample {
	out := make([]sample, len(qs))
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				q := qs[i]
				due := start.Add(offs[i])
				grab := time.Now()
				sleepUntil(due)
				sent := time.Now()
				var root spanRef
				var t0 int64
				if rec != nil && rec.on.Load() {
					root = spanRef{id: rec.newID()}
					root.req = root.id
					t0 = rec.now()
				}
				r, err := read(c, base, q, root)
				done := time.Now()
				if root.id != 0 {
					rec.add(span{Name: "client/" + kindNames[q.kind], Req: root.req, ID: root.id, Start: t0, End: rec.now()})
				}
				s := sample{kind: q.kind, lat: done.Sub(due), done: done.Sub(start)}
				if grab.After(due) {
					s.wait, s.lag = grab.Sub(due), sent.Sub(grab)
				} else {
					s.lag = sent.Sub(due)
				}
				s.err = err != nil || r.status != http.StatusOK
				s.ok = !s.err && bytes.Equal(r.body, q.ref)
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}
