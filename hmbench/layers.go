package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"hypermine/internal/admit"
	"hypermine/internal/core"
	"hypermine/internal/delta"
	"hypermine/internal/registry"
	"hypermine/internal/table"
	"hypermine/internal/telemetry"
)

// rung is one step of the read ladder: the same pooled reads sent
// through a deeper stack each step.
type rung struct {
	durs   []float64 // per call, microseconds
	allocs []float64 // allocations per call, one value per block (HTTP steps only)
}

func (r *rung) us() float64            { return median(r.durs) }
func (r *rung) perCallAllocs() float64 { return median(r.allocs) }

// kindLadder holds one read kind's ladder.
type kindLadder struct {
	engine, handler, direct, routed rung
	respBytes                       float64
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// bufRW is a reusable in-process ResponseWriter.
type bufRW struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *bufRW) Header() http.Header         { return w.h }
func (w *bufRW) WriteHeader(code int)        { w.status = code }
func (w *bufRW) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *bufRW) reset() {
	clear(w.h)
	w.status = http.StatusOK
	w.body.Reset()
}

// measureLadder replays each kind's pooled reads down the ladder of
// public entry points, in blocks of block calls, rounds times over, the
// kinds and steps interleaved so drift hits all of them alike:
// engine.Do on the primary owner's engine, that owner's
// server.Handler() in process, the owner over loopback, and the
// router. Every HTTP answer must equal the reference.
func measureLadder(ctx context.Context, e *env, rounds, block int, t *tally) ([numKinds]kindLadder, error) {
	var out [numKinds]kindLadder
	primary := e.c.owners()[0]
	sv := primary.reg.Acquire(modelName)
	if sv == nil {
		return out, fmt.Errorf("primary owner does not serve %s", modelName)
	}
	defer sv.Release()
	eng := sv.Engine()
	h := primary.srv.Handler()
	conn := newConn()
	defer closeConn(conn)
	rw := &bufRW{h: http.Header{}}
	reqs := make([]*http.Request, block)

	for r := 0; r < rounds; r++ {
		for k := range out {
			kl := &out[k]
			qs := e.pool[k]

			for i := 0; i < block; i++ {
				q := qs[i%len(qs)]
				t0 := time.Now()
				_, err := eng.Do(ctx, &q.req)
				kl.engine.durs = append(kl.engine.durs, us(time.Since(t0)))
				t.op(err == nil, fmt.Sprintf("engine.Do %s: %v", kindNames[k], err))
			}

			for i := range reqs {
				q := qs[i%len(qs)]
				req, err := http.NewRequest(q.method, "http://member"+q.path, bytes.NewReader(q.body))
				if err != nil {
					return out, err
				}
				if q.body != nil {
					req.Header.Set("Content-Type", "application/json")
				}
				reqs[i] = req
			}
			m0 := mallocs()
			for i, req := range reqs {
				q := qs[i%len(qs)]
				rw.reset()
				t0 := time.Now()
				h.ServeHTTP(rw, req)
				kl.handler.durs = append(kl.handler.durs, us(time.Since(t0)))
				t.check(rw.status == http.StatusOK && bytes.Equal(rw.body.Bytes(), q.ref), "in-process answer to "+q.path)
				kl.respBytes = float64(rw.body.Len())
			}
			kl.handler.allocs = append(kl.handler.allocs, float64(mallocs()-m0)/float64(block))

			for _, st := range []struct {
				base string
				r    *rung
			}{{primary.url, &kl.direct}, {e.c.routerURL, &kl.routed}} {
				m0 = mallocs()
				for i := 0; i < block; i++ {
					q := qs[i%len(qs)]
					t0 := time.Now()
					rep, err := read(conn, st.base, q, spanRef{})
					st.r.durs = append(st.r.durs, us(time.Since(t0)))
					if err != nil {
						return out, err
					}
					t.check(rep.status == http.StatusOK && bytes.Equal(rep.body, q.ref), "answer to "+st.base+q.path)
				}
				st.r.allocs = append(st.r.allocs, float64(mallocs()-m0)/float64(block))
			}
		}
	}
	return out, nil
}

// perCall runs fn n times per block over blocks blocks and returns the
// median per-call nanoseconds.
func perCall(blocks, n int, fn func()) float64 {
	var per []float64
	for b := 0; b < blocks; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// admitConfig turns every admission mechanism on with limits no serial
// caller reaches, so a ticket pays for every stage without waiting:
// the configuration the repository's admission-overhead bar was set
// against. hypermined runs with admission off by default.
var admitConfig = admit.Config{
	TenantRate: 1e12, TenantBurst: 1e12,
	ModelRate: 1e12, ModelBurst: 1e12,
	CheapCapacity: 64, CheapQueue: 64,
	ExpensiveCapacity: 8, ExpensiveQueue: 16,
	BreakerFailures: 100,
}

// admitTicket returns the nanoseconds of one AdmitInto+Done round trip
// and the controller's queued and shed counts afterwards.
func admitTicket(ctx context.Context) (ns, queued, shed float64) {
	ctl := admit.NewController(admitConfig)
	ns = perCall(9, 20000, func() {
		var tk admit.Ticket
		if ok, _, _ := ctl.AdmitInto(ctx, &tk, "", modelName, admit.Cheap); ok {
			tk.Done(admit.OutcomeOK)
		}
	})
	for _, m := range ctl.Stats().Models {
		queued += float64(m.Queued)
		shed += float64(m.Shed)
	}
	return ns, queued, shed
}

// traceCycle returns the nanoseconds of one unretained request trace:
// Start, one span, Finish, with the daemon's default tracer.
func traceCycle() float64 {
	tr := telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: -1})
	return perCall(9, 20000, func() {
		a := tr.Start(telemetry.TraceID{}, "classify", modelName, "")
		a.AddSpan("engine", 0, 100)
		tr.Finish(a, time.Microsecond, http.StatusOK, "")
	})
}

// writeLayers times the write path's layers on the churn model outside
// the fleet: snapshot encode and decode, delta count seeding and
// appends, and registry load, append and acquire. Each of reps
// repetitions starts from the decoded PUT model and appends the same
// batches the churn cycles append.
func writeLayers(ctx context.Context, e *env, batches map[int][][]table.Value, reps int, t *tally, rep *report) error {
	var enc, dec, seed, load []float64
	deltaMs, regMs := map[int][]float64{}, map[int][]float64{}
	var snapLen int
	reg := registry.New(registry.Options{Logger: quietLogger()})
	for r := 0; r < reps; r++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := core.WriteSnapshot(&buf, e.model, core.SaveOptions{}); err != nil {
			return err
		}
		enc = append(enc, ms(time.Since(t0)))
		snapLen = buf.Len()

		t0 = time.Now()
		m, err := core.ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		dec = append(dec, ms(time.Since(t0)))

		t0 = time.Now()
		ds, err := delta.New(m, delta.Options{})
		if err != nil {
			return err
		}
		seed = append(seed, ms(time.Since(t0)))
		for _, n := range appendSizes {
			t0 = time.Now()
			_, _, err := ds.AppendRowsContext(ctx, batches[n])
			deltaMs[n] = append(deltaMs[n], ms(time.Since(t0)))
			t.op(err == nil, fmt.Sprintf("delta append %d rows: %v", n, err))
		}

		t0 = time.Now()
		_, err = reg.LoadGenerationContext(ctx, modelName, m, int64(r+1)*10)
		load = append(load, ms(time.Since(t0)))
		t.op(err == nil, fmt.Sprintf("registry load: %v", err))
		for _, n := range appendSizes {
			t0 = time.Now()
			_, err := reg.AppendRowsContext(ctx, modelName, batches[n])
			regMs[n] = append(regMs[n], ms(time.Since(t0)))
			t.op(err == nil, fmt.Sprintf("registry append %d rows: %v", n, err))
		}
	}
	rep.set("core.snapshot_encode_ms", median(enc), "ms")
	rep.set("core.snapshot_decode_ms", median(dec), "ms")
	rep.set("core.snapshot_bytes", float64(snapLen), "bytes")
	rep.set("delta.seed_ms", median(seed), "ms")
	rep.set("registry.load_ms", median(load), "ms")
	for _, n := range appendSizes {
		rep.set(fmt.Sprintf("delta.append_ms.r%d", n), median(deltaMs[n]), "ms")
		rep.set(fmt.Sprintf("registry.append_ms.r%d", n), median(regMs[n]), "ms")
	}
	rep.set("registry.acquire_ns", perCall(9, 50000, func() {
		if sv := reg.Acquire(modelName); sv != nil {
			sv.Release()
		}
	}), "ns")
	return nil
}
