package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"hypermine/internal/core"
	"hypermine/internal/engine"
	"hypermine/internal/table"
)

// minePhase is the offline user: one caller mining fresh tables in a
// closed loop, alternating the k3 and k10 shapes. Each iteration
// regenerates the table from the same seed outside the timed region,
// times core.BuildContext on it, then times engine.New until the first
// answer of each kind. The model digest and the first answers must be
// the same in every iteration.
//
// Traced, the same iteration times the layers one public call at a
// time instead: the table index before the build, the build on the
// indexed table, then each cold engine artefact.
type minePhase struct {
	seed   int64
	traced bool
	tally  *tally

	build map[string][]float64 // shape -> BuildContext seconds
	first []float64            // k3: engine.New to four first answers, seconds

	// traced only
	indexMs  []float64
	buildMs  map[string][]float64
	domMs    []float64
	simMs    []float64
	clsMs    []float64
	rulesMs  []float64
	predNs   []float64
	expected map[string][]byte // shape -> digest and answers of the first iteration
}

func newMinePhase(seed int64, traced bool, t *tally) *minePhase {
	return &minePhase{seed: seed, traced: traced, tally: t,
		build: map[string][]float64{}, buildMs: map[string][]float64{}, expected: map[string][]byte{}}
}

// run does iterations of both shapes.
func (p *minePhase) run(ctx context.Context, iterations int) error {
	for i := 0; i < iterations; i++ {
		for j, s := range []shape{shapeK3, shapeK10} {
			if err := p.iterate(ctx, s, p.seed+int64(10+j)); err != nil {
				return fmt.Errorf("mine %s: %w", s.name, err)
			}
		}
	}
	return nil
}

func (p *minePhase) iterate(ctx context.Context, s shape, seed int64) error {
	tb, err := genTable(seed, s)
	if err != nil {
		return err
	}
	if p.traced && s.k <= 8 {
		t0 := time.Now()
		tb.Index()
		p.indexMs = append(p.indexMs, ms(time.Since(t0)))
	}
	t0 := time.Now()
	m, err := core.BuildContext(ctx, tb, mineConfig)
	d := time.Since(t0)
	p.tally.op(err == nil, fmt.Sprintf("build %s: %v", s.name, err))
	if err != nil {
		return err
	}
	if p.traced {
		p.buildMs[s.name] = append(p.buildMs[s.name], ms(d))
	} else {
		p.build[s.name] = append(p.build[s.name], d.Seconds())
	}

	t0 = time.Now()
	eng, err := engine.New(m, engine.Options{})
	if err != nil {
		return err
	}
	if p.traced && s == shapeK3 {
		if err := p.coldLayers(ctx, eng); err != nil {
			return err
		}
	}
	answers, err := firstAnswers(ctx, eng, tb)
	d = time.Since(t0)
	p.tally.op(err == nil, fmt.Sprintf("first answers %s: %v", s.name, err))
	if err != nil {
		return err
	}
	if !p.traced && s == shapeK3 {
		p.first = append(p.first, d.Seconds())
	}

	// Outside the timed region: the digest of the model (its snapshot
	// encodes every weight bit for bit) plus the answers.
	var snap bytes.Buffer
	if err := core.WriteSnapshot(&snap, m, core.SaveOptions{}); err != nil {
		return err
	}
	sum := sha256.Sum256(snap.Bytes())
	got := append(sum[:], answers...)
	if want, ok := p.expected[s.name]; ok {
		p.tally.check(bytes.Equal(want, got), "model digest or first answers of "+s.name+" changed between iterations")
	} else {
		p.expected[s.name] = got
	}
	return nil
}

// firstAnswers asks a fresh engine for one answer of each kind: the
// dominator, a similarity ranking, a classification and the rules for
// one head. It returns the answers rendered as JSON.
func firstAnswers(ctx context.Context, eng *engine.Engine, tb *table.Table) ([]byte, error) {
	dom, err := eng.Do(ctx, &engine.Request{Dominators: &engine.DominatorsRequest{}})
	if err != nil {
		return nil, err
	}
	d := dom.Dominators
	if len(d.Dominator) == 0 || len(d.Targets) == 0 {
		return nil, fmt.Errorf("model has no dominator/targets")
	}
	sim, err := eng.Do(ctx, &engine.Request{Similar: &engine.SimilarRequest{A: tb.AttrName(0), Top: 5}})
	if err != nil {
		return nil, err
	}
	values := map[string]int{}
	for i, a := range d.Dominator {
		values[a] = 1 + i%tb.K()
	}
	cls, err := eng.Do(ctx, &engine.Request{Classify: &engine.ClassifyRequest{Target: d.Targets[0], Values: values}})
	if err != nil {
		return nil, err
	}
	rules, err := eng.Do(ctx, &engine.Request{Rules: &engine.RulesRequest{Head: d.Targets[0], Top: 5}})
	if err != nil {
		return nil, err
	}
	return json.Marshal([]*engine.Response{dom, sim, cls, rules})
}

// coldLayers times each cold artefact of a fresh engine through its
// own public entry point, then a warm prediction.
func (p *minePhase) coldLayers(ctx context.Context, eng *engine.Engine) error {
	t0 := time.Now()
	dom, err := eng.Dominator(ctx, engine.DefaultDomSpec())
	if err != nil {
		return err
	}
	p.domMs = append(p.domMs, ms(time.Since(t0)))
	t0 = time.Now()
	if _, err := eng.SimilarityGraph(ctx); err != nil {
		return err
	}
	p.simMs = append(p.simMs, ms(time.Since(t0)))
	t0 = time.Now()
	if _, err := eng.Classifier(ctx); err != nil {
		return err
	}
	p.clsMs = append(p.clsMs, ms(time.Since(t0)))
	targets, err := eng.Targets(ctx)
	if err != nil {
		return err
	}
	if len(targets) == 0 {
		return fmt.Errorf("model has no targets")
	}
	t0 = time.Now()
	if _, err := eng.Rules(ctx, targets[0], core.MineOptions{MaxRules: 5}); err != nil {
		return err
	}
	p.rulesMs = append(p.rulesMs, ms(time.Since(t0)))

	vals := make([]table.Value, len(dom.DomSet))
	for i := range vals {
		vals[i] = table.Value(1 + i%eng.Model().Table.K())
	}
	const n = 2000
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := eng.Predict(ctx, vals, targets[i%len(targets)]); err != nil {
			return err
		}
	}
	p.predNs = append(p.predNs, float64(time.Since(t0).Nanoseconds())/n)
	return nil
}
