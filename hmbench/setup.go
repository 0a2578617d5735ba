package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync/atomic"

	"hypermine/internal/core"
	"hypermine/internal/table"
)

// env is what set-up leaves for the serve and churn phases: the base
// table and its model, the booted fleet serving that model, and the
// read pool with every expected answer.
type env struct {
	seed  int64
	base  *table.Table
	model *core.Model
	snap  []byte
	c     *cluster
	pool  [numKinds][]*query
}

// setup generates the served table from seed, mines it, boots the
// fleet (see startCluster for rec and memberDelay), publishes the
// model through the router and warms every read of the pool on both
// owners. Each pooled read is answered first by
// the secondary owner directly and then through the router (which
// reaches the primary); the two answers must be byte-identical, and
// become the reference every later answer is compared with.
func setup(seed int64, rec *recorder, memberDelay *atomic.Int64, tally *tally) (*env, error) {
	tb, err := genTable(seed, shapeK3)
	if err != nil {
		return nil, err
	}
	m, err := core.Build(tb, mineConfig)
	if err != nil {
		return nil, err
	}
	var snap bytes.Buffer
	if err := core.WriteSnapshot(&snap, m, core.SaveOptions{}); err != nil {
		return nil, err
	}
	c, err := startCluster(rec, memberDelay)
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, base: tb, model: m, snap: snap.Bytes(), c: c}
	if err := e.warm(tally); err != nil {
		c.close()
		return nil, err
	}
	return e, nil
}

func (e *env) warm(tally *tally) error {
	conn := newConn()
	defer closeConn(conn)
	if err := e.put(conn); err != nil {
		return err
	}
	info, err := fetchInfo(conn, e.c.routerURL)
	if err != nil {
		return err
	}
	e.pool = buildPool(rand.New(rand.NewSource(e.seed+1)), info, e.base.Attrs())
	secondary := e.c.owners()[1].url
	for _, qs := range e.pool {
		for _, q := range qs {
			direct, err := read(conn, secondary, q, spanRef{})
			if err != nil {
				return err
			}
			routed, err := read(conn, e.c.routerURL, q, spanRef{})
			if err != nil {
				return err
			}
			if direct.status != http.StatusOK || routed.status != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d direct, %d routed", q.path, direct.status, routed.status)
			}
			tally.check(bytes.Equal(direct.body, routed.body), "warm-up answers of "+q.path+" differ between owners")
			q.ref = direct.body
		}
	}
	return nil
}

// reset publishes the base snapshot again, undoing the churn phase's
// appends, and rewarms every pooled read on both owners. Each answer
// must equal its reference.
func (e *env) reset(tally *tally) error {
	conn := newConn()
	defer closeConn(conn)
	if err := e.put(conn); err != nil {
		return err
	}
	for _, o := range e.c.owners() {
		for _, qs := range e.pool {
			for _, q := range qs {
				r, err := read(conn, o.url, q, spanRef{})
				if err != nil {
					return err
				}
				tally.check(r.status == http.StatusOK && bytes.Equal(r.body, q.ref), "answer of "+o.name+" to "+q.path+" after reset")
			}
		}
	}
	return nil
}

// put publishes the base snapshot through the router.
func (e *env) put(conn *http.Client) error {
	r, err := send(conn, http.MethodPut, e.c.routerURL+"/v1/models/"+modelName, "application/octet-stream", e.snap, spanRef{})
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("PUT snapshot: %d: %s", r.status, r.body)
	}
	return nil
}

// tally counts operations attempted and failed, and correctness checks
// that did not hold. Phases update it from several goroutines.
type tally struct {
	attempted, failed, mismatches atomic.Int64
}

// op records one operation; what names it on standard error if it
// failed.
func (t *tally) op(ok bool, what string) {
	t.attempted.Add(1)
	if !ok && t.failed.Add(1) <= 10 {
		fmt.Fprintln(os.Stderr, "hmbench: failed:", what)
	}
}

// check records one correctness check; a failed check is a failed
// operation too.
func (t *tally) check(ok bool, what string) {
	if !ok {
		t.mismatches.Add(1)
	}
	t.op(ok, "check: "+what)
}
