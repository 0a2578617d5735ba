package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"hypermine/internal/hypergraph"
	"hypermine/internal/runopt"
	"hypermine/internal/table"
)

// CandidateStrategy selects which 2-to-1 tail pairs the builder
// evaluates. This is an ablation knob (DESIGN.md §5).
type CandidateStrategy int

const (
	// AllPairs evaluates every {A,B} -> C combination (the paper's
	// exhaustive enumeration of §3.2.1).
	AllPairs CandidateStrategy = iota
	// EdgeSeeded only evaluates {A,B} -> C when at least one of the
	// constituent directed edges A->C, B->C was itself admitted.
	// Much faster, slightly lossy.
	EdgeSeeded
)

// Config parameterizes association-hypergraph construction (§5.1.2).
type Config struct {
	// K is the value-set cardinality the table must carry.
	K int
	// GammaEdge is gamma_{1->1}: a directed edge (A, X) is admitted
	// iff ACV({A},{X}) >= GammaEdge * ACV(empty,{X}).
	GammaEdge float64
	// GammaPair is gamma_{2->1}: a 2-to-1 hyperedge ({A,B},{X}) is
	// admitted iff its ACV >= GammaPair * max of the two constituent
	// directed-edge ACVs.
	GammaPair float64
	// GammaTriple is gamma_{3->1} for the future-work extension
	// (MaxTailSize = 3): a 3-to-1 hyperedge is admitted iff its ACV
	// >= GammaTriple * max of its three constituent 2-to-1 ACVs.
	// 0 defaults to GammaPair.
	GammaTriple float64
	// MaxTailSize is 1 (directed edges only), 2 (the paper's full
	// restricted model), or 3 (the thesis's future-work
	// generalization: 3-to-1 hyperedges seeded from admitted 2-to-1
	// edges). 0 defaults to 2.
	MaxTailSize int
	// Parallelism bounds worker goroutines; 0 means GOMAXPROCS.
	Parallelism int
	// Candidates picks the tail-pair enumeration strategy.
	Candidates CandidateStrategy

	// Run carries the runtime-only hooks of BuildContext: a progress
	// callback (PhaseEdges per head, PhasePairs per tail pair,
	// PhaseTriples per candidate group; possibly invoked concurrently
	// during parallel stages) and the context-poll stride in ACV
	// evaluations (0 = DefaultCheckEvery). Held by pointer so Config
	// stays comparable; never persisted to JSON or snapshots.
	Run *runopt.Hooks `json:"-"`
}

// DefaultCheckEvery is the default work-unit stride between context
// polls in BuildContext. A unit is one ACV evaluation from counts, or
// one triple counted (O(rows) by row scan, O((k-1)·rows/64) per tail
// cell by popcount), so 16 of them keep cancellation latency in the
// tens of microseconds on paper-scale tables while making the poll
// cost unmeasurable against the counting work.
const DefaultCheckEvery = 16

// C1 is configuration C1 of §5.1.2: k=3, gamma_{1->1}=1.15,
// gamma_{2->1}=1.05.
func C1() Config { return Config{K: 3, GammaEdge: 1.15, GammaPair: 1.05} }

// C2 is configuration C2 of §5.1.2: k=5, gamma_{1->1}=1.20,
// gamma_{2->1}=1.12.
func C2() Config { return Config{K: 5, GammaEdge: 1.20, GammaPair: 1.12} }

func (c Config) withDefaults() Config {
	if c.MaxTailSize == 0 {
		c.MaxTailSize = 2
	}
	if c.GammaTriple == 0 {
		c.GammaTriple = c.GammaPair
	}
	return c
}

// workers resolves Parallelism for this process only; the model keeps
// the caller's value, so its snapshot bytes do not depend on the host.
func (c Config) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) validate(tb *table.Table) error {
	if c.K != 0 && c.K != tb.K() {
		return fmt.Errorf("core: config expects k=%d but table has k=%d", c.K, tb.K())
	}
	if c.GammaEdge < 1 || c.GammaPair < 1 {
		return fmt.Errorf("core: gamma values must be >= 1 (Definition 3.7), got %v and %v", c.GammaEdge, c.GammaPair)
	}
	if c.MaxTailSize < 1 || c.MaxTailSize > 3 {
		return fmt.Errorf("core: MaxTailSize %d outside 1..3", c.MaxTailSize)
	}
	if c.MaxTailSize == 3 && c.GammaTriple < 1 {
		return fmt.Errorf("core: GammaTriple %v must be >= 1", c.GammaTriple)
	}
	if tb.NumRows() == 0 {
		return fmt.Errorf("core: empty table")
	}
	if tb.NumAttrs() < 2 {
		return fmt.Errorf("core: need at least two attributes")
	}
	return nil
}

// Model is a built association hypergraph together with the training
// table it was mined from, which is retained so that association
// tables can be reconstructed for classification (§4.2).
type Model struct {
	Table  *table.Table
	Config Config
	H      *hypergraph.H

	// EdgeACV[a*n+c] caches ACV({a},{c}) for every ordered attribute
	// pair, admitted or not; used by gamma-significance and Table 5.2.
	EdgeACV []float64

	// RowsOmitted marks a model loaded from a persisted form that
	// dropped the training table (SaveOptions.OmitRows): Table carries
	// the schema but zero observations. Graph-only queries still work;
	// operations that rebuild association tables fail via RequireRows.
	RowsOmitted bool
}

// RequireRows reports whether the model still carries its training
// table. Operations that rebuild association tables (classification,
// rule mining) call it to fail with a clear error on models loaded
// from row-less snapshots instead of misbehaving on an empty table.
func (m *Model) RequireRows() error {
	if m.RowsOmitted || m.Table == nil || m.Table.NumRows() == 0 {
		return errors.New("core: model was saved without training rows (SaveOptions.OmitRows); reload from a snapshot that includes rows to rebuild association tables")
	}
	return nil
}

// EdgeACVAt returns the cached ACV({a},{c}).
func (m *Model) EdgeACVAt(a, c int) float64 {
	return m.EdgeACV[a*m.Table.NumAttrs()+c]
}

// AssociationTableFor rebuilds the AT of an edge of the model from the
// training table.
func (m *Model) AssociationTableFor(tail []int, head int) (*AssociationTable, error) {
	if err := m.RequireRows(); err != nil {
		return nil, err
	}
	return BuildAssociationTable(m.Table, tail, head)
}

// Build mines the association hypergraph of the table under the given
// configuration, following §3.2.1: directed hyperedges are constructed
// head set by head set; a combination is admitted iff it is
// gamma-significant (Definition 3.7). Edge weights are ACVs.
//
// Build is the v1 form of BuildContext with a background context; the
// two are bit-identical when the context is never canceled.
func Build(tb *table.Table, cfg Config) (*Model, error) {
	return BuildContext(context.Background(), tb, cfg)
}

// BuildContext is Build under a context: workers poll ctx every
// Config.Run.CheckEvery ACV evaluations (DefaultCheckEvery when
// unset) and the whole build returns ctx.Err() promptly once the
// context is canceled or its deadline passes, discarding partial
// results. Config.Run.Progress, when set, observes stage progress.
//
// It counts each attribute pair once, then derives: stage 2 counts
// each attribute triple once, one tail-pair block per job on
// Config.Parallelism workers, and reads all three 2-to-1 candidates
// of the triple from its cells (see counts.go).
func BuildContext(ctx context.Context, tb *table.Table, cfg Config) (*Model, error) {
	if err := cfg.withDefaults().validate(tb); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := tb.Validate(); err != nil {
		return nil, err
	}
	kern := newCounter(tb)
	c, err := countPairs(ctx, tb, kern)
	if err != nil {
		return nil, err
	}
	m, _, err := derive(ctx, tb, cfg, c, kern, nil)
	return m, err
}

// DeriveContext mines the model of tb from counts of exactly tb's rows
// (CountContext, then AddRowsContext per append): the same derive
// BuildContext runs, so the result is bit-identical to BuildContext on
// tb, and no row is rescanned before stage 3. Edges also present in
// prev (which may be nil) share its vertex-id slices; the second
// result counts them.
func DeriveContext(ctx context.Context, tb *table.Table, cfg Config, c *Counts, prev *hypergraph.H) (*Model, int, error) {
	if err := cfg.withDefaults().validate(tb); err != nil {
		return nil, 0, err
	}
	if c.n != tb.NumAttrs() || c.k != tb.K() || c.rows != tb.NumRows() ||
		(c.triple == nil && cfg.withDefaults().MaxTailSize >= 2) {
		return nil, 0, errors.New("core: counts do not cover the table")
	}
	return derive(ctx, tb, cfg, c, nil, prev)
}

// derive runs the admission pipeline on counts c of tb. Triples come
// from c when resident, else each block is counted with kern.
func derive(ctx context.Context, tb *table.Table, cfg Config, c *Counts, kern *counter, prev *hypergraph.H) (*Model, int, error) {
	cfg = cfg.withDefaults()
	n, k := c.n, c.k
	model := &Model{Table: tb, Config: cfg, EdgeACV: make([]float64, n*n)}
	h, err := hypergraph.New(tb.Attrs())
	if err != nil {
		return nil, 0, err
	}
	model.H = h
	shared := 0
	addEdge := func(tail []int, head int, w float64) error {
		if prev != nil {
			if id, ok := prev.Lookup(tail, []int{head}); ok {
				e := prev.Edge(id)
				shared++
				return h.AddEdgeShared(e.Tail, e.Head, w)
			}
		}
		return h.AddEdge(tail, []int{head}, w)
	}

	// Stage 1: directed edges from the pair counts, head by head. The
	// baseline ACV(empty,{c}) is the largest value count over the rows.
	chk := runopt.NewChecker(ctx, cfg.Run.Stride(), DefaultCheckEvery)
	prog := runopt.NewMeter(runopt.PhaseEdges, n, cfg.Run.Func())
	edgeAdmit := make([]bool, n*n)
	for x := 0; x < n; x++ {
		null := float64(slices.Max(c.val[x*k:(x+1)*k])) / float64(c.rows)
		for a := 0; a < n; a++ {
			if a == x {
				continue
			}
			if err := chk.Tick(); err != nil {
				return nil, 0, err
			}
			acv := c.edgeACV(a, x)
			model.EdgeACV[a*n+x] = acv
			edgeAdmit[a*n+x] = acv >= cfg.GammaEdge*null
		}
		prog.Tick(1)
	}
	for a := 0; a < n; a++ {
		for x := 0; x < n; x++ {
			if edgeAdmit[a*n+x] {
				if err := addEdge([]int{a}, x, model.EdgeACV[a*n+x]); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	if cfg.MaxTailSize < 2 {
		return model, shared, nil
	}

	// Stage 2: 2-to-1 hyperedges. Workers take one tail-pair block
	// (a, b) per job; each triple (a, b, x), x > b, gives the ACV sums
	// of its candidates {b,x}->a, {a,x}->b and {a,b}->x, stored at
	// sums[c.candIndex(...)]. Then one pass admits the candidates in
	// (tail, head) order, so the edge order needs no sort. EdgeSeeded
	// skips triples none of whose candidates is seeded, unless stage 3
	// will read their sums.
	sums := make([]int32, 3*c.numTriples())
	seeded := func(t1, t2, x int) bool {
		return cfg.Candidates == AllPairs || edgeAdmit[t1*n+x] || edgeAdmit[t2*n+x]
	}
	kkk := k * k * k
	prog2 := runopt.NewMeter(runopt.PhasePairs, n*(n-1)/2, cfg.Run.Func())
	ws := newWorkers(ctx, cfg, c, kern)
	if c.triple == nil {
		for _, w := range ws {
			w.block = make([]int32, (n-2)*kkk)
		}
	}
	err = forPairs(ctx, n, ws, func(w *worker, a, b int) error {
		cs := w.cs[:0]
		for x := b + 1; x < n; x++ {
			if cfg.MaxTailSize >= 3 || seeded(a, b, x) || seeded(a, x, b) || seeded(b, x, a) {
				cs = append(cs, x)
			}
		}
		w.cs = cs
		cells := w.block
		if c.triple != nil {
			cells = c.triple[c.tripleOrd(a, b, b+1)*kkk:]
		} else if err := kern.countBlock(c, a, b, cs, cells, w); err != nil {
			return err
		}
		for _, x := range cs {
			if err := w.chk.Tick(); err != nil {
				return err
			}
			s0, s1, s2 := tripleSums(k, cells[(x-b-1)*kkk:][:kkk], w.m0, w.m1)
			o := 3 * c.tripleOrd(a, b, x)
			sums[o], sums[o+1], sums[o+2] = int32(s0), int32(s1), int32(s2)
		}
		prog2.Tick(1)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	rows := float64(c.rows)
	pairACV := func(t1, t2, x int) float64 { return float64(sums[c.candIndex(t1, t2, x)]) / rows }
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for x := 0; x < n; x++ {
				if x == a || x == b || !seeded(a, b, x) {
					continue
				}
				if err := chk.Tick(); err != nil {
					return nil, 0, err
				}
				base := max(model.EdgeACV[a*n+x], model.EdgeACV[b*n+x])
				if acv := pairACV(a, b, x); acv >= cfg.GammaPair*base {
					if err := addEdge([]int{a, b}, x, acv); err != nil {
						return nil, 0, err
					}
				}
			}
		}
	}
	if cfg.MaxTailSize < 3 {
		return model, shared, nil
	}
	if err := buildTriples(ctx, model, cfg, pairACV, addEdge); err != nil {
		return nil, 0, err
	}
	return model, shared, nil
}

// candIndex is the index in derive's sums of the 2-to-1 candidate with
// tail {t1,t2} and head h: three slots per sorted triple, by the rank
// of the head in it.
func (c *Counts) candIndex(t1, t2, h int) int {
	if t1 > t2 {
		t1, t2 = t2, t1
	}
	switch {
	case h < t1:
		return 3 * c.tripleOrd(h, t1, t2)
	case h < t2:
		return 3*c.tripleOrd(t1, h, t2) + 1
	default:
		return 3*c.tripleOrd(t1, t2, h) + 2
	}
}

// tripleSums returns, for the k³ cells t of a triple x<y<z, the ACV
// numerators of its three 2-to-1 candidates: s0 for head x (the sum
// over (vy,vz) of the largest count over vx), s1 for head y, s2 for
// head z. m0 and m1 are k² scratch.
func tripleSums(k int, t, m0, m1 []int32) (s0, s1, s2 int) {
	clear(m0)
	clear(m1)
	for vx := 0; vx < k; vx++ {
		for vy := 0; vy < k; vy++ {
			best := int32(0)
			for vz, v := range t[(vx*k+vy)*k:][:k] {
				best = max(best, v)
				m0[vy*k+vz] = max(m0[vy*k+vz], v)
				m1[vx*k+vz] = max(m1[vx*k+vz], v)
			}
			s2 += int(best)
		}
	}
	for i := range m0 {
		s0 += int(m0[i])
		s1 += int(m1[i])
	}
	return s0, s1, s2
}

// edgeACV computes ACV({a},{x}) from the pair counts: the sum over tail
// values of the largest joint count, over the row count.
func (c *Counts) edgeACV(a, x int) float64 {
	k := c.k
	var sum int64
	if a < x {
		cells := c.pair[c.pairBase(a, x):]
		for va := 0; va < k; va++ {
			sum += int64(slices.Max(cells[va*k : va*k+k]))
		}
	} else {
		cells := c.pair[c.pairBase(x, a):]
		for va := 0; va < k; va++ {
			best := int32(0)
			for vx := 0; vx < k; vx++ {
				best = max(best, cells[vx*k+va])
			}
			sum += int64(best)
		}
	}
	return float64(sum) / float64(c.rows)
}

// tripleKey identifies a 3-to-1 candidate: sorted tail a<b<c, head d.
type tripleKey struct{ a, b, c, d int }

// buildTriples is stage 3 (the thesis's future-work generalization):
// candidate 3-to-1 hyperedges are seeded by extending each admitted
// 2-to-1 hyperedge's tail with every other attribute, deduplicated,
// and admitted under the gamma-significance rule of Definition 3.7 —
// ACV(T, H) >= GammaTriple * max over v in T of ACV(T - {v}, H),
// where pairACV gives the 2-to-1 constituent ACVs stage 2 counted.
func buildTriples(ctx context.Context, model *Model, cfg Config,
	pairACV func(t1, t2, x int) float64, addEdge func(tail []int, head int, w float64) error) error {
	tb := model.Table
	n := tb.NumAttrs()
	k := tb.K()
	m := tb.NumRows()

	// Enumerate candidates: each admitted ({a,b},{d}) extends to
	// ({a,b,v},{d}) for all v outside {a,b,d}.
	candSet := make(map[tripleKey]struct{})
	for _, e := range model.H.Edges() {
		if len(e.Tail) != 2 {
			continue
		}
		a, b, d := e.Tail[0], e.Tail[1], e.Head[0]
		for v := 0; v < n; v++ {
			if v == a || v == b || v == d {
				continue
			}
			t := [3]int{a, b, v}
			sort.Ints(t[:])
			candSet[tripleKey{t[0], t[1], t[2], d}] = struct{}{}
		}
	}
	cands := make([]tripleKey, 0, len(candSet))
	for key := range candSet {
		cands = append(cands, key)
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.a != b.a {
			return a.a < b.a
		}
		if a.b != b.b {
			return a.b < b.b
		}
		if a.c != b.c {
			return a.c < b.c
		}
		return a.d < b.d
	})

	// Group by tail triple so the tail-row index is computed once; each
	// group writes its admissions to its own slot, in candidate order.
	groups := groupByTail(cands)
	admitted := make([][]float64, len(groups))
	prog := runopt.NewMeter(runopt.PhaseTriples, len(groups), cfg.Run.Func())
	kkk := k * k * k
	type scratch struct {
		chk     *runopt.Checker
		cnt     []int32
		tailRow []int32
	}
	ws := make([]*scratch, cfg.workers())
	for i := range ws {
		ws[i] = &scratch{runopt.NewChecker(ctx, cfg.Run.Stride(), DefaultCheckEvery), make([]int32, kkk*k), make([]int32, m)}
	}
	err := parallel(ctx, len(groups), len(ws), func(w, g int) error {
		s, group := ws[w], groups[g]
		first := group[0]
		colA, colB, colC := tb.Column(first.a), tb.Column(first.b), tb.Column(first.c)
		for i := range s.tailRow {
			s.tailRow[i] = (int32(colA[i]-1)*int32(k)+int32(colB[i]-1))*int32(k) + int32(colC[i]-1)
		}
		acvs := make([]float64, len(group))
		for ci, cand := range group {
			if err := s.chk.Tick(); err != nil {
				return err
			}
			base := max(pairACV(cand.a, cand.b, cand.d), pairACV(cand.a, cand.c, cand.d), pairACV(cand.b, cand.c, cand.d))
			colD := tb.Column(cand.d)
			clear(s.cnt)
			for i, tr := range s.tailRow {
				s.cnt[int(tr)*k+int(colD[i]-1)]++
			}
			var sum int64
			for r := 0; r < kkk; r++ {
				sum += int64(slices.Max(s.cnt[r*k : r*k+k]))
			}
			acvs[ci] = -1
			if acv := float64(sum) / float64(m); acv >= cfg.GammaTriple*base {
				acvs[ci] = acv
			}
		}
		admitted[g] = acvs
		prog.Tick(1)
		return nil
	})
	if err != nil {
		return err
	}
	for g, group := range groups {
		for ci, cand := range group {
			if acv := admitted[g][ci]; acv >= 0 {
				if err := addEdge([]int{cand.a, cand.b, cand.c}, cand.d, acv); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// groupByTail splits the sorted candidate list into runs sharing one
// tail triple, the unit of work (and of progress) for stage 3.
func groupByTail(cands []tripleKey) [][]tripleKey {
	var groups [][]tripleKey
	start := 0
	for i := 1; i <= len(cands); i++ {
		if i == len(cands) || cands[i].a != cands[start].a ||
			cands[i].b != cands[start].b || cands[i].c != cands[start].c {
			groups = append(groups, cands[start:i])
			start = i
		}
	}
	return groups
}
