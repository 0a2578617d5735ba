// Package similarity implements the association-based similarity
// notions of §3.3: in-similarity and out-similarity between attributes
// of an association hypergraph (Definition 3.11 over Notations 3.9 and
// 3.10), the induced similarity graph (Definition 3.13), and the
// Euclidean similarity baseline of §5.3.1.
package similarity

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"hypermine/internal/hypergraph"
	"hypermine/internal/runopt"
)

// replaceTail writes T with a1 replaced by a2 (Notation 3.9(3)) into
// buf and returns the filled prefix, or ok=false when the replacement
// does not produce a valid set (a2 already occurs in T - {a1}). Callers
// pass a stack scratch array sliced to length 0, so restricted-model
// tails (|T| <= 3) substitute without heap allocation; longer tails
// transparently grow the buffer.
func replaceTail(buf []int, tail []int, a1, a2 int) ([]int, bool) {
	out := buf[:0]
	for _, v := range tail {
		if v == a1 {
			v = a2
		} else if v == a2 {
			return nil, false
		}
		out = append(out, v)
	}
	return out, true
}

// OutSim computes out-sim_H(a1, a2) of Definition 3.11(1): the
// weighted fraction of tail-substitutable hyperedge pairs among all
// hyperedges leaving a1 or a2. Result is in [0, 1]; identical
// attributes give 1 when they have outgoing edges, and 0 denominators
// give 0. The sums run from the smaller vertex id, so OutSim(h, a, b)
// and OutSim(h, b, a) are the same float64 bits.
//
//hyper:noalloc
func OutSim(h *hypergraph.H, a1, a2 int) float64 {
	if a1 == a2 {
		if len(h.Out(a1)) > 0 {
			return 1
		}
		return 0
	}
	a1, a2 = min(a1, a2), max(a1, a2)
	var num, den float64
	var scratch [hypergraph.MaxRestrictedTail]int
	// Pairs seeded from out(a1): matched ones contribute min to the
	// numerator and max to the denominator; unmatched ones are
	// (e, empty) pairs contributing ACV(e) to the denominator.
	for _, i := range h.Out(a1) {
		e := h.Edge(int(i))
		sub, ok := replaceTail(scratch[:0], e.Tail, a1, a2)
		if ok {
			if j, found := h.Lookup(sub, e.Head); found {
				f := h.Edge(int(j))
				num += math.Min(e.Weight, f.Weight)
				den += math.Max(e.Weight, f.Weight)
				continue
			}
		}
		den += e.Weight
	}
	// Remaining (empty, f) pairs from out(a2).
	for _, i := range h.Out(a2) {
		f := h.Edge(int(i))
		sub, ok := replaceTail(scratch[:0], f.Tail, a2, a1)
		if ok {
			if _, found := h.Lookup(sub, f.Head); found {
				continue // already counted from out(a1)
			}
		}
		den += f.Weight
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// replaceHead writes H with a1 replaced by a2 into buf (Notation
// 3.9(4)).
func replaceHead(buf []int, head []int, a1, a2 int) ([]int, bool) {
	return replaceTail(buf, head, a1, a2) // same substitution semantics
}

// InSim computes in-sim_H(a1, a2) of Definition 3.11(2): as OutSim but
// substituting in head sets of incoming hyperedges. Like OutSim it is
// bit-symmetric in a1 and a2.
//
//hyper:noalloc
func InSim(h *hypergraph.H, a1, a2 int) float64 {
	if a1 == a2 {
		if len(h.In(a1)) > 0 {
			return 1
		}
		return 0
	}
	a1, a2 = min(a1, a2), max(a1, a2)
	var num, den float64
	var scratch [hypergraph.MaxRestrictedTail]int
	for _, i := range h.In(a1) {
		e := h.Edge(int(i))
		sub, ok := replaceHead(scratch[:0], e.Head, a1, a2)
		if ok {
			// The substituted head must not collide with the tail.
			if !containsInt(e.Tail, a2) {
				if j, found := h.Lookup(e.Tail, sub); found {
					f := h.Edge(int(j))
					num += math.Min(e.Weight, f.Weight)
					den += math.Max(e.Weight, f.Weight)
					continue
				}
			}
		}
		den += e.Weight
	}
	for _, i := range h.In(a2) {
		f := h.Edge(int(i))
		sub, ok := replaceHead(scratch[:0], f.Head, a2, a1)
		if ok && !containsInt(f.Tail, a1) {
			if _, found := h.Lookup(f.Tail, sub); found {
				continue
			}
		}
		den += f.Weight
	}
	if den == 0 {
		return 0
	}
	return num / den
}

//hyper:noalloc
func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Distance is the similarity-graph edge weight of Definition 3.13:
// d(a1, a2) = 1 - (in-sim + out-sim)/2.
func Distance(h *hypergraph.H, a1, a2 int) float64 {
	return 1 - (InSim(h, a1, a2)+OutSim(h, a1, a2))/2
}

// Graph is the similarity graph SG_S induced by a collection S of
// attributes: an undirected, weighted, complete graph stored as a
// symmetric distance matrix.
type Graph struct {
	Nodes []int // attribute ids of the inducing collection S
	D     [][]float64
}

// GraphOptions tunes context-aware similarity-graph construction.
type GraphOptions struct {
	// Parallelism bounds workers; 0 means GOMAXPROCS (matching
	// core.Config.Parallelism), 1 is serial.
	Parallelism int
	// Progress, when set, observes PhaseSimilarity progress: one unit
	// per completed matrix row stripe. It may be invoked concurrently
	// from worker goroutines.
	Progress runopt.ProgressFunc
	// CheckEvery bounds matrix rows between context polls per worker;
	// 0 means every row (a row is the natural O(|S| x edges) stripe).
	CheckEvery int
}

// BuildGraph computes the similarity graph over the collection S of
// vertex ids of h (Definition 3.13). Diagonal distances are 0. The
// O(|S|^2) pairwise distance matrix is computed with GOMAXPROCS
// workers; use BuildGraphContext to pick the worker count, observe
// progress, or bound the run with a context.
func BuildGraph(h *hypergraph.H, s []int) (*Graph, error) {
	return BuildGraphContext(context.Background(), h, s, GraphOptions{})
}

// BuildGraphParallel is BuildGraph with an explicit parallelism bound
// (0 means GOMAXPROCS). Every worker owns disjoint rows of the matrix
// and Distance is a pure function of (h, a1, a2), so the result is
// bit-identical at every parallelism level.
func BuildGraphParallel(h *hypergraph.H, s []int, parallelism int) (*Graph, error) {
	return BuildGraphContext(context.Background(), h, s, GraphOptions{Parallelism: parallelism})
}

// BuildGraphContext is BuildGraph under a context: workers poll ctx
// every CheckEvery row stripes and the build returns ctx.Err()
// promptly once canceled, discarding the partial matrix. With a
// never-canceled context the result is bit-identical to BuildGraph at
// every parallelism level. Cells are read off substitution contexts
// (contexts.go) rather than by calling Distance, with the same bits.
func BuildGraphContext(ctx context.Context, h *hypergraph.H, s []int, opt GraphOptions) (*Graph, error) {
	if len(s) == 0 {
		return nil, errors.New("similarity: empty collection")
	}
	numV := h.NumVertices()
	for _, v := range s {
		if v < 0 || v >= numV {
			return nil, fmt.Errorf("similarity: vertex %d out of range", v)
		}
	}
	parallelism := opt.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(s) {
		parallelism = len(s)
	}
	prog := runopt.NewMeter(runopt.PhaseSimilarity, len(s), opt.Progress)
	g := &Graph{Nodes: append([]int(nil), s...), D: make([][]float64, len(s))}
	for i := range g.D {
		g.D[i] = make([]float64, len(s))
	}
	member := make([]bool, numV)
	for _, v := range s {
		member[v] = true
	}
	in, out := newSide(h, member, false), newSide(h, member, true)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// fillRow marks s[i]'s contexts in the worker's slots, reads every
	// cell (i, j > i) off the two sides and clears the marks again.
	type scratch struct{ inSlot, outSlot, mr, mx []int32 }
	newScratch := func() *scratch {
		n := max(in.maxLen, out.maxLen)
		return &scratch{inSlot: make([]int32, in.n), outSlot: make([]int32, out.n),
			mr: make([]int32, n), mx: make([]int32, n)}
	}
	fillRow := func(sc *scratch, i int) {
		r := s[i]
		in.mark(r, sc.inSlot, true)
		out.mark(r, sc.outSlot, true)
		for j := i + 1; j < len(s); j++ {
			x := s[j]
			var d float64
			if x == r { // a vertex listed twice in s
				d = Distance(h, r, x)
			} else {
				d = 1 - (in.sim(r, x, sc.inSlot, sc.mr, sc.mx)+out.sim(r, x, sc.outSlot, sc.mr, sc.mx))/2
			}
			g.D[i][j] = d
			g.D[j][i] = d
		}
		in.mark(r, sc.inSlot, false)
		out.mark(r, sc.outSlot, false)
	}
	if parallelism == 1 {
		chk := runopt.NewChecker(ctx, opt.CheckEvery, 1)
		sc := newScratch()
		for i := 0; i < len(s); i++ {
			if err := chk.Tick(); err != nil {
				return nil, err
			}
			fillRow(sc, i)
			prog.Tick(1)
		}
		return g, nil
	}
	// Row i owns cells (i, j) and (j, i) for all j > i, so workers
	// never write the same cell. Rows shrink toward the end of the
	// matrix; the channel balances the skew dynamically. Canceled
	// workers keep draining so the feeder never blocks.
	rows := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chk := runopt.NewChecker(ctx, opt.CheckEvery, 1)
			sc := newScratch()
			for i := range rows {
				if chk.Tick() != nil {
					continue
				}
				fillRow(sc, i)
				prog.Tick(1)
			}
		}()
	}
	for i := 0; i < len(s) && ctx.Err() == nil; i++ {
		select {
		case rows <- i:
		case <-ctx.Done():
		}
	}
	close(rows)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// Dist returns the stored distance between graph positions i and j.
func (g *Graph) Dist(i, j int) float64 { return g.D[i][j] }

// MeanDistance returns the average off-diagonal distance (the "overall
// mean distance in SG_S" figure quoted in §5.3.2).
func (g *Graph) MeanDistance() float64 {
	n := len(g.Nodes)
	if n < 2 {
		return 0
	}
	var sum float64
	var cnt int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += g.D[i][j]
			cnt++
		}
	}
	return sum / float64(cnt)
}

// TriangleViolations counts triples violating the triangle inequality
// by more than eps. §5.3.2 "experimentally verified that the weight
// function satisfies the triangle inequality"; this makes the check
// executable.
func (g *Graph) TriangleViolations(eps float64) int {
	n := len(g.Nodes)
	violations := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			for k := 0; k < n; k++ {
				if k == i || k == j {
					continue
				}
				if g.D[i][j] > g.D[i][k]+g.D[k][j]+eps {
					violations++
				}
			}
		}
	}
	return violations
}

// EuclideanSim computes ES(A,B) of §5.3.1 on two raw delta series:
// 1 - ||normalized(a) - normalized(b)|| / 2, a value in [0, 1].
func EuclideanSim(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("similarity: series lengths %d != %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, errors.New("similarity: empty series")
	}
	na, err := normalize(a)
	if err != nil {
		return 0, err
	}
	nb, err := normalize(b)
	if err != nil {
		return 0, err
	}
	var sq float64
	for i := range na {
		d := na[i] - nb[i]
		sq += d * d
	}
	return 1 - math.Sqrt(sq)/2, nil
}

func normalize(v []float64) ([]float64, error) {
	var sq float64
	for _, x := range v {
		sq += x * x
	}
	if sq == 0 {
		return nil, errors.New("similarity: zero-norm series")
	}
	n := math.Sqrt(sq)
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x / n
	}
	return out, nil
}
