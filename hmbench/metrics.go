package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"
)

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"resident_mb", "MB", "lower"},
	{"build_k3_s", "s", "lower"},
	{"build_k10_s", "s", "lower"},
	{"first_answer_s", "s", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"read_goodput_rps", "1/s", "higher"},
	{"append_p50_ms", "ms", "lower"},
	{"append_tail_ms", "ms", "lower"},
	{"put_p50_ms", "ms", "lower"},
	{"churn_read_tail_ms", "ms", "lower"},
}

// perLayer are the metrics of single layers, reported by the traced
// run and named after the module they measure.
func perLayer() []metricDef {
	defs := []metricDef{
		{"table.index_ms", "ms", "lower"},
		{"core.build_ms.k3", "ms", "lower"},
		{"core.build_ms.k10", "ms", "lower"},
		{"core.snapshot_encode_ms", "ms", "lower"},
		{"core.snapshot_decode_ms", "ms", "lower"},
		{"core.snapshot_bytes", "bytes", "lower"},
		{"cover.dominator_ms", "ms", "lower"},
		{"similarity.graph_ms", "ms", "lower"},
		{"classify.prepare_ms", "ms", "lower"},
		{"classify.predict_ns", "ns", "lower"},
		{"engine.rules_cold_ms", "ms", "lower"},
		{"engine.rule_cache_hit_ratio", "ratio", "higher"},
		{"delta.seed_ms", "ms", "lower"},
		{"registry.load_ms", "ms", "lower"},
		{"registry.acquire_ns", "ns", "lower"},
	}
	for _, n := range appendSizes {
		defs = append(defs,
			metricDef{fmt.Sprintf("delta.append_ms.r%d", n), "ms", "lower"},
			metricDef{fmt.Sprintf("registry.append_ms.r%d", n), "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"admit.ticket_ns", "ns", "lower"},
		metricDef{"admit.queued", "count", "lower"},
		metricDef{"admit.shed", "count", "lower"},
		metricDef{"telemetry.trace_ns", "ns", "lower"},
		metricDef{"fleet.failovers", "count", "lower"},
		metricDef{"fleet.replicate_ms", "ms", "lower"},
		metricDef{"fleet.replicate_bytes", "bytes", "lower"},
		metricDef{"fleet.replicate_pushes", "count", "lower"},
		metricDef{"fleet.gossip_ms", "ms", "lower"},
		metricDef{"bench.sched_lag_ms", "ms", "lower"},
		metricDef{"bench.trace_overhead_us", "us", "lower"},
	)
	for _, k := range kindNames {
		defs = append(defs,
			metricDef{"engine.do_us." + k, "us", "lower"},
			metricDef{"server.handler_us." + k, "us", "lower"},
			metricDef{"server.self_us." + k, "us", "lower"},
			metricDef{"server.allocs." + k, "count", "lower"},
			metricDef{"server.resp_bytes." + k, "bytes", "lower"},
			metricDef{"wire.member_us." + k, "us", "lower"},
			metricDef{"fleet.router_us." + k, "us", "lower"},
			metricDef{"fleet.router_allocs." + k, "count", "lower"},
			metricDef{"server.member_us." + k, "us", "lower"},
			metricDef{"wire.hop_us." + k, "us", "lower"},
			metricDef{"fleet.router_self_us." + k, "us", "lower"},
			metricDef{"residual_us." + k, "us", "lower"},
		)
	}
	return append(defs,
		metricDef{"bar.admit_share_classify", "ratio", "lower"},
		metricDef{"bar.telemetry_share_classify", "ratio", "lower"},
		metricDef{"bar.rules_warm_speedup", "ratio", "higher"},
		metricDef{"bar.delta_speedup_r1", "ratio", "higher"},
	)
}

// tracedRun is the traced run: the mine phase with each layer timed
// on its own, the traced serve phase, and the churn phase with spans
// on, followed by the write path's layers measured outside the fleet.
func tracedRun(ctx context.Context, e *env, mine *minePhase, churn *churnPhase, iters, cycles int, serveSeconds float64, rec *recorder, t *tally, rep *report) error {
	if err := mine.run(ctx, iters); err != nil {
		return err
	}
	mineLayers(mine, rep)
	if err := tracedServe(ctx, e, serveSeconds, rec, t, rep); err != nil {
		return err
	}
	rec.on.Store(true)
	if err := churn.run(cycles); err != nil {
		return err
	}
	churnSpans := rec.take()
	rep.spans = append(rep.spans, churnSpans...)
	if err := tracedChurn(ctx, e, churn, churnSpans, t, rep); err != nil {
		return err
	}
	rec.on.Store(false)
	admission(ctx, rep)
	bars(rep)
	return nil
}

// tracedServe is the serve phase of the traced run. At the reference
// rate it alternates slices with the span wrappers on and off, which
// gives the tracing overhead and each kind's traced end-to-end time.
// The spans split each kind's traced time under load into the router,
// the hop, the member and a residual. Then it replays the pool down
// the ladder of entry points, one request at a time, and splits the
// routed time into the engine, the server's own mux and codec,
// telemetry, the wire to the member, and the router hop.
func tracedServe(ctx context.Context, e *env, seconds float64, rec *recorder, t *tally, rep *report) error {
	rng := rand.New(rand.NewSource(e.seed + 2))
	conns := []*http.Client{newConn(), newConn()}
	defer closeConn(conns[0])
	defer closeConn(conns[1])
	on, off := &rungStats{rate: ladderRates[refRung]}, &rungStats{rate: ladderRates[refRung]}
	const slices = 4
	for i := 0; i < slices; i++ {
		st := off
		if i%2 == 0 {
			st = on
		}
		rec.on.Store(st == on)
		st.addSlice(e, rng, conns, seconds*0.6/slices, rec, t)
	}
	rec.on.Store(false)
	spans := rec.take()
	rep.spans = append(rep.spans, spans...)
	rep.set("bench.trace_overhead_us", (median(on.lat)-median(off.lat))*1e3, "us")
	rep.set("bench.sched_lag_ms", median(append(on.lag, off.lag...)), "ms")

	// Each kind's traced end-to-end time, and the self time of every
	// span of its requests, grouped by span name.
	traced := map[string][]float64{}
	kindOf := map[uint64]string{}
	for _, s := range spans {
		if k, ok := strings.CutPrefix(s.Name, "client/"); ok {
			traced[k] = append(traced[k], float64(s.dur())/1e3)
			kindOf[s.Req] = k
		}
	}
	self := selfTimes(spans)
	selfByKind := map[string]map[string][]float64{}
	for _, s := range spans {
		k := kindOf[s.Req]
		if k == "" {
			continue
		}
		if selfByKind[k] == nil {
			selfByKind[k] = map[string][]float64{}
		}
		name, _, _ := strings.Cut(s.Name, "/")
		selfByKind[k][name] = append(selfByKind[k][name], float64(self[s.ID])/1e3)
	}
	// Under load, each kind's traced time splits by span into the
	// router's self time, the hop to the member (the member's HTTP
	// stack and the loopback wire), the member's handler, and the
	// residual: the root span's self time, which no wrapped layer
	// covers (the client's codec, the wire to the router and the
	// router's HTTP stack). Their means add up to the mean traced time.
	inLoad := map[string]string{"router": "fleet.router_self_us.", "hop": "wire.hop_us.", "member": "server.member_us.", "client": "residual_us."}
	for _, k := range kindNames {
		sb := selfByKind[k]
		for span, metric := range inLoad {
			rep.set(metric+k, median(sb[span]), "us")
		}
		rep.note("%s under load: traced end to end mean %.1f us over %d requests = residual %.1f + router %.1f + hop %.1f + member %.1f (means of self times)",
			k, mean(traced[k]), len(traced[k]), mean(sb["client"]), mean(sb["router"]), mean(sb["hop"]), mean(sb["member"]))
	}

	traceNs := traceCycle()
	rep.set("telemetry.trace_ns", traceNs, "ns")
	lad, err := measureLadder(ctx, e, 8, 200, t)
	if err != nil {
		return err
	}
	for k, name := range kindNames {
		l := &lad[k]
		eng, h, direct, routed := l.engine.us(), l.handler.us(), l.direct.us(), l.routed.us()
		rep.set("engine.do_us."+name, eng, "us")
		rep.set("server.handler_us."+name, h, "us")
		// Admission is off in the served configuration, so it takes no
		// share of the handler.
		rep.set("server.self_us."+name, h-eng-traceNs/1e3, "us")
		rep.set("server.allocs."+name, l.handler.perCallAllocs(), "count")
		rep.set("server.resp_bytes."+name, l.respBytes, "bytes")
		rep.set("wire.member_us."+name, direct-h, "us")
		rep.set("fleet.router_us."+name, routed-direct, "us")
		rep.set("fleet.router_allocs."+name, l.routed.perCallAllocs()-l.direct.perCallAllocs(), "count")
		rep.note("%s one at a time: routed %.1f us = engine %.2f + server self %.2f + telemetry %.2f + wire %.1f + router %.1f; under load the member took %.1f us and router plus hop %.1f us (medians)",
			name, routed, eng, h-eng-traceNs/1e3, traceNs/1e3, direct-h, routed-direct,
			median(selfByKind[name]["member"]), median(selfByKind[name]["router"])+median(selfByKind[name]["hop"]))
	}

	sv := e.c.owners()[0].reg.Acquire(modelName)
	if sv == nil {
		return fmt.Errorf("primary owner does not serve %s", modelName)
	}
	st := sv.Engine().Stats()
	sv.Release()
	rep.set("engine.rule_cache_hit_ratio", float64(st.RuleHits)/float64(st.RuleHits+st.RuleMisses), "ratio")
	return nil
}

// tracedChurn turns the churn phase's spans and the write path's layer
// timings into metrics.
func tracedChurn(ctx context.Context, e *env, churn *churnPhase, spans []span, t *tally, rep *report) error {
	var repMs, repBytes []float64
	for _, s := range spans {
		if s.Name == "replicate" {
			repMs = append(repMs, float64(s.dur())/1e6)
			repBytes = append(repBytes, float64(s.Bytes))
		}
	}
	rep.set("fleet.replicate_ms", median(repMs), "ms")
	rep.set("fleet.replicate_bytes", median(repBytes), "bytes")
	rep.set("fleet.replicate_pushes", float64(len(repMs)), "count")

	var gossip []float64
	primary := e.c.owners()[0].node
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		if err := primary.GossipAll(ctx); err != nil {
			return err
		}
		gossip = append(gossip, ms(time.Since(t0)))
	}
	rep.set("fleet.gossip_ms", median(gossip), "ms")

	conn := newConn()
	defer closeConn(conn)
	r, err := send(conn, http.MethodGet, e.c.routerURL+"/stats", "", nil, spanRef{})
	if err != nil {
		return err
	}
	var stats struct {
		Failovers float64 `json:"failovers"`
	}
	if err := json.Unmarshal(r.body, &stats); err != nil {
		return fmt.Errorf("router stats: %w", err)
	}
	rep.set("fleet.failovers", stats.Failovers, "count")

	return writeLayers(ctx, e, churn.batches, 5, t, rep)
}

// mineLayers reports the traced mine phase.
func mineLayers(p *minePhase, rep *report) {
	rep.set("table.index_ms", median(p.indexMs), "ms")
	rep.set("core.build_ms.k3", median(p.buildMs[shapeK3.name]), "ms")
	rep.set("core.build_ms.k10", median(p.buildMs[shapeK10.name]), "ms")
	rep.set("cover.dominator_ms", median(p.domMs), "ms")
	rep.set("similarity.graph_ms", median(p.simMs), "ms")
	rep.set("classify.prepare_ms", median(p.clsMs), "ms")
	rep.set("engine.rules_cold_ms", median(p.rulesMs), "ms")
	rep.set("classify.predict_ns", median(p.predNs), "ns")
}

// admission reports the admission round trip, measured on its own
// because hypermined serves with admission off by default.
func admission(ctx context.Context, rep *report) {
	ns, queued, shed := admitTicket(ctx)
	rep.set("admit.ticket_ns", ns, "ns")
	rep.set("admit.queued", queued, "count")
	rep.set("admit.shed", shed, "count")
}

// bars carries the repository's existing acceptance bars as ratios,
// reported but not gated on: admission and telemetry each under 2% of
// the warm classify handler, warm rules at least 10x faster than a
// cold mine, and a one-row delta append faster than a full re-mine.
// The router bar (under 2 ms) reads fleet.router_us.classify directly.
func bars(rep *report) {
	handlerNs := rep.metrics["server.handler_us.classify"].Value * 1e3
	rep.set("bar.admit_share_classify", rep.metrics["admit.ticket_ns"].Value/handlerNs, "ratio")
	rep.set("bar.telemetry_share_classify", rep.metrics["telemetry.trace_ns"].Value/handlerNs, "ratio")
	rep.set("bar.rules_warm_speedup", rep.metrics["engine.rules_cold_ms"].Value*1e3/rep.metrics["engine.do_us.rules"].Value, "ratio")
	rep.set("bar.delta_speedup_r1", rep.metrics["core.build_ms.k3"].Value/rep.metrics["delta.append_ms.r1"].Value, "ratio")
}
