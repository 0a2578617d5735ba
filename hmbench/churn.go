package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"hypermine/internal/core"
	"hypermine/internal/table"
)

// appendSizes are the rows per :append batch of one write cycle.
var appendSizes = []int{1, 10, 100}

// churnPhase is the live-dataset writer beside readers. One connection
// runs write cycles through the router: PUT the base snapshot (a hot
// swap that resets the table, replicated to both owners), then CSV
// :append batches of 1, 10 and 100 seeded rows, each acked only after
// both owners publish. The other connection replays the read mix in a
// closed loop meanwhile. Every write goes to the primary owner through
// the router.
type churnPhase struct {
	e     *env
	tally *tally
	rng   *rand.Rand

	putMs    []float64
	allApp   []float64 // every append in order
	readMs   []float64
	lastRows [][]table.Value         // rows appended since the last PUT
	batches  map[int][][]table.Value // the last cycle's batches by size
}

func newChurnPhase(e *env, t *tally) *churnPhase {
	return &churnPhase{e: e, tally: t, rng: rand.New(rand.NewSource(e.seed + 3)),
		batches: map[int][][]table.Value{}}
}

func (p *churnPhase) run(cycles int) error {
	wconn, rconn := newConn(), newConn()
	defer closeConn(wconn)
	defer closeConn(rconn)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		readErr = p.reads(rconn, stop)
	}()
	err := p.writes(wconn, cycles)
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	if readErr != nil {
		return readErr
	}
	return p.finalCheck()
}

func (p *churnPhase) writes(conn *http.Client, cycles int) error {
	router := p.e.c.routerURL
	attrs := p.e.base.Attrs()
	for c := 0; c < cycles; c++ {
		t0 := time.Now()
		r, err := send(conn, http.MethodPut, router+"/v1/models/"+modelName, "application/octet-stream", p.e.snap, spanRef{})
		d := time.Since(t0)
		if err != nil {
			return err
		}
		p.tally.op(r.status == http.StatusOK, fmt.Sprintf("PUT snapshot: %d", r.status))
		p.putMs = append(p.putMs, ms(d))
		var rows [][]table.Value
		for _, n := range appendSizes {
			batch := genRows(p.rng, len(attrs), n, p.e.base.K())
			body := rowsCSV(attrs, batch)
			t0 := time.Now()
			r, err := send(conn, http.MethodPost, router+"/v1/models/"+modelName+":append", "text/csv", body, spanRef{})
			d := time.Since(t0)
			if err != nil {
				return err
			}
			p.tally.op(r.status == http.StatusOK, fmt.Sprintf("append %d rows: %d", n, r.status))
			if r.status != http.StatusOK {
				return fmt.Errorf("append %d rows: %d: %s", n, r.status, r.body)
			}
			p.allApp = append(p.allApp, ms(d))
			rows = append(rows, batch...)
			p.batches[n] = batch
		}
		p.lastRows = rows
		if err := p.checkOwners(conn); err != nil {
			return err
		}
	}
	return nil
}

// checkOwners asks both owners directly for a few reads: generations
// and answers must agree.
func (p *churnPhase) checkOwners(conn *http.Client) error {
	owners := p.e.c.owners()
	probes := []*query{p.e.pool[kDominators][0], p.e.pool[kClassify][0], p.e.pool[kSimilar][0]}
	for _, q := range probes {
		var first reply
		for i, o := range owners {
			r, err := read(conn, o.url, q, spanRef{})
			if err != nil {
				return err
			}
			p.tally.op(r.status == http.StatusOK, fmt.Sprintf("owner %s %s: %d", o.name, q.path, r.status))
			if i == 0 {
				first = r
				continue
			}
			p.tally.check(r.gen == first.gen && r.gen >= 0 && bytes.Equal(r.body, first.body),
				fmt.Sprintf("owners disagree on %s at generations %d and %d", q.path, first.gen, r.gen))
		}
	}
	return nil
}

// reads replays the mix through the router until stop closes. Answers
// to the same read at the same generation must be byte-identical.
func (p *churnPhase) reads(conn *http.Client, stop <-chan struct{}) error {
	mix := drawMix(rand.New(rand.NewSource(p.e.seed+4)), p.e.pool, 4096)
	seen := map[*query]map[int64][]byte{}
	for i := 0; ; i++ {
		select {
		case <-stop:
			return nil
		default:
		}
		q := mix[i%len(mix)]
		t0 := time.Now()
		r, err := read(conn, p.e.c.routerURL, q, spanRef{})
		d := time.Since(t0)
		if err != nil {
			return err
		}
		ok := r.status == http.StatusOK && r.gen >= 0
		p.tally.op(ok, fmt.Sprintf("read %s during churn: %d, generation %d", q.path, r.status, r.gen))
		if !ok {
			continue
		}
		p.readMs = append(p.readMs, ms(d))
		byGen := seen[q]
		if byGen == nil {
			byGen = map[int64][]byte{}
			seen[q] = byGen
		}
		if want, ok := byGen[r.gen]; ok {
			p.tally.check(bytes.Equal(want, r.body), fmt.Sprintf("read %s changed within generation %d", q.path, r.gen))
		} else {
			byGen[r.gen] = r.body
		}
	}
}

// finalCheck compares the model both owners serve, bit for bit, with
// a full core.Build of the base table plus every row appended since
// the last PUT.
func (p *churnPhase) finalCheck() error {
	tb, err := p.e.base.AppendRows(p.lastRows)
	if err != nil {
		return err
	}
	want, err := core.Build(tb, mineConfig)
	if err != nil {
		return err
	}
	for _, o := range p.e.c.owners() {
		sv := o.reg.Peek(modelName)
		if sv == nil {
			p.tally.check(false, "owner "+o.name+" does not serve the model")
			continue
		}
		p.tally.check(sameModel(want, sv.Model()), "owner "+o.name+" serves a model unlike a full re-mine")
		sv.Release()
	}
	return nil
}

// sameModel reports whether two models hold the same table, the same
// edges in the same order, and bit-identical weights and edge ACVs.
func sameModel(a, b *core.Model) bool {
	ta, tb := a.Table, b.Table
	if ta.NumRows() != tb.NumRows() || ta.NumAttrs() != tb.NumAttrs() {
		return false
	}
	for j := 0; j < ta.NumAttrs(); j++ {
		if !slices.Equal(ta.Column(j), tb.Column(j)) {
			return false
		}
	}
	if len(a.EdgeACV) != len(b.EdgeACV) {
		return false
	}
	for i := range a.EdgeACV {
		if math.Float64bits(a.EdgeACV[i]) != math.Float64bits(b.EdgeACV[i]) {
			return false
		}
	}
	ea, eb := a.H.Edges(), b.H.Edges()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if math.Float64bits(ea[i].Weight) != math.Float64bits(eb[i].Weight) ||
			!slices.Equal(ea[i].Tail, eb[i].Tail) || !slices.Equal(ea[i].Head, eb[i].Head) {
			return false
		}
	}
	return true
}
