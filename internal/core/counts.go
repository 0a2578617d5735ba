package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hypermine/internal/runopt"
	"hypermine/internal/table"
)

// Joint counts are the integer numerators behind every ACV the builder
// computes: ACV(T, {C}) is the sum over tail cells of the largest joint
// count with a head value, divided by the row count (§3.2.1). So the k²
// cells of one unordered attribute pair give both of its directed
// edges, and the k³ cells of one unordered triple give all three of its
// 2-to-1 candidates. BuildContext counts each pair and each triple once;
// internal/delta keeps the same tables resident and folds appended rows
// into them. Both then run the one derive in builder.go.
//
// Cells are counted by one of two kernels, picked from the input:
//
//   - popcount: cell (va, vb, vc) is the popcount of three ANDed posting
//     bitmaps of the table's TID index, 64 rows per word. Only the
//     (k-1)³ cells with no value at k are counted; the rest follow by
//     subtraction from the pair counts, which are the triple's margins.
//   - scan: one pass over the rows of a head column per triple, adding
//     one to the cell of each row.
//
// Per triple the popcount kernel costs (k-1)³·⌈rows/64⌉ word operations
// and the scan kernel rows increments; popcountWins compares the two.
//
// BuildAssociationTable counts the one pair or triple behind an
// association table with the popcount kernel too (countAssociation),
// when the table's index is already built and popcountWins holds.

// Counts holds the joint-count tables of one table. Layout is flat
// int32 arrays at precomputed offsets: unordered pairs (a<b) carry k²
// cells, unordered triples (a<b<c) carry k³ cells.
type Counts struct {
	n, k, rows int

	val  []int32 // val[a*k + (v-1)]
	pair []int32 // pair (a<b) at pairBase(a,b), cell (va-1)*k+(vb-1)
	// triple (a<b<c) at tripleBase(a,b,c), cell ((va-1)*k+(vb-1))*k+(vc-1),
	// so the triples of one tail-pair block (a, b) are contiguous. Only
	// resident counts carry it; BuildContext counts one block at a time.
	triple []int32

	pairOff   []int   // pairOff[a]: ordinal of pair (a, a+1)
	tripleOff [][]int // tripleOff[a][b-a-1]: ordinal of triple (a, b, b+1)
}

func newCounts(n, k, rows int) *Counts {
	c := &Counts{
		n: n, k: k, rows: rows,
		val:       make([]int32, n*k),
		pair:      make([]int32, n*(n-1)/2*k*k),
		pairOff:   make([]int, n),
		tripleOff: make([][]int, n),
	}
	pairs, triples := 0, 0
	for a := 0; a < n; a++ {
		c.pairOff[a] = pairs
		pairs += n - a - 1
		c.tripleOff[a] = make([]int, n-a-1)
		for b := a + 1; b < n; b++ {
			c.tripleOff[a][b-a-1] = triples
			triples += n - b - 1
		}
	}
	return c
}

func (c *Counts) pairBase(a, b int) int { return (c.pairOff[a] + b - a - 1) * c.k * c.k }

// tripleOrd is the ordinal of the triple a<b<x.
func (c *Counts) tripleOrd(a, b, x int) int { return c.tripleOff[a][b-a-1] + x - b - 1 }

func (c *Counts) numTriples() int { return c.n * (c.n - 1) * (c.n - 2) / 6 }

// CountBytes is the resident size of the count tables CountContext
// makes for tb under cfg: value counts, pair cells and, for MaxTailSize
// >= 2, triple cells, 4 bytes each.
func CountBytes(tb *table.Table, cfg Config) int64 {
	nn, kk := int64(tb.NumAttrs()), int64(tb.K())
	b := 4 * (nn*kk + nn*(nn-1)/2*kk*kk)
	if cfg.withDefaults().MaxTailSize >= 2 {
		b += 4 * (nn * (nn - 1) * (nn - 2) / 6 * kk * kk * kk)
	}
	return b
}

// CountContext counts tb into resident tables: value and pair counts,
// and every triple when cfg.MaxTailSize (after defaults) is at least 2,
// so DeriveContext can re-derive the model after AddRowsContext without
// touching old rows. Triples are counted in parallel over tail-pair
// blocks on cfg.Parallelism workers.
func CountContext(ctx context.Context, tb *table.Table, cfg Config) (*Counts, error) {
	kern := newCounter(tb)
	c, err := countPairs(ctx, tb, kern)
	if err != nil || cfg.withDefaults().MaxTailSize < 2 {
		return c, err
	}
	c.triple = make([]int32, c.numTriples()*c.k*c.k*c.k)
	ws := newWorkers(ctx, cfg, c, kern)
	err = forPairs(ctx, c.n, ws, func(w *worker, a, b int) error {
		cs := w.cs[:0]
		for x := b + 1; x < c.n; x++ {
			cs = append(cs, x)
		}
		w.cs = cs
		return kern.countBlock(c, a, b, cs, c.triple[c.tripleOrd(a, b, b+1)*c.k*c.k*c.k:], w)
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// countPairs counts values and pairs of tb with kern, serially: k²
// cells per pair are cheap next to the triples.
func countPairs(ctx context.Context, tb *table.Table, kern *counter) (*Counts, error) {
	n, k := tb.NumAttrs(), tb.K()
	c := newCounts(n, k, tb.NumRows())
	for a := 0; a < n; a++ {
		for v, cnt := range tb.ValueCounts(a) {
			c.val[a*k+v] = int32(cnt)
		}
	}
	chk := runopt.NewChecker(ctx, 0, DefaultCheckEvery)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if err := chk.Tick(); err != nil {
				return nil, err
			}
			kern.countPair(c, a, b)
		}
	}
	return c, nil
}

// popcountWins reports whether the popcount kernel is cheaper than the
// scan kernel for a table of the given cardinality and row count. One
// AND+popcount word costs about as much as one scanned row
// (BenchmarkCountBlock), so popcount wins while (k-1)³·⌈rows/64⌉ <
// rows: up to k = 4, with k = 5 a near tie.
func popcountWins(k, rows int) bool {
	l := k - 1
	return l*l*l*((rows+63)/64) < rows
}

// counter counts joint cells of one table with the kernel popcountWins
// picks: ix is the table's TID index for the popcount kernel, nil for
// the scan kernel.
type counter struct {
	tb *table.Table
	ix *table.Index
}

func newCounter(tb *table.Table) *counter {
	kern := &counter{tb: tb}
	if popcountWins(tb.K(), tb.NumRows()) {
		kern.ix = tb.Index()
	}
	return kern
}

// countPair fills the k² cells of pair a<b. Value counts must be
// filled first: they are the pair's margins.
func (kern *counter) countPair(c *Counts, a, b int) {
	k := c.k
	kern.pairCells(a, b, c.pair[c.pairBase(a, b):][:k*k], c.val[a*k:], c.val[b*k:])
}

// pairCells fills cells with the k² joint counts of attributes a < b,
// cell (va-1)*k+(vb-1); valA and valB are the value counts of a and b,
// the pair's margins.
func (kern *counter) pairCells(a, b int, cells, valA, valB []int32) {
	k := kern.tb.K()
	if kern.ix == nil {
		clear(cells)
		colB := kern.tb.Column(b)
		for i, va := range kern.tb.Column(a) {
			cells[int(va-1)*k+int(colB[i]-1)]++
		}
		return
	}
	for va := 0; va < k-1; va++ {
		pa := kern.ix.Posting(a, table.Value(va+1))
		for vb := 0; vb < k-1; vb++ {
			cells[va*k+vb] = int32(table.PopcountAnd(pa, kern.ix.Posting(b, table.Value(vb+1))))
		}
	}
	completeMargins(k, cells, k, 1, valA, 1, valB, 1)
}

// countBlock fills the k³ cells of every triple (a, b, x), x in cs, at
// dst[(x-b-1)*k³:]. Pair counts must be filled first.
func (kern *counter) countBlock(c *Counts, a, b int, cs []int, dst []int32, w *worker) error {
	k := c.k
	kk, kkk := k*k, k*k*k
	if kern.ix == nil {
		colA, colB := kern.tb.Column(a), kern.tb.Column(b)
		tail := w.tail
		for i := range tail {
			tail[i] = (int32(colA[i]-1)*int32(k) + int32(colB[i]-1)) * int32(k)
		}
		for _, x := range cs {
			if err := w.chk.Tick(); err != nil {
				return err
			}
			cells := dst[(x-b-1)*kkk:][:kkk]
			clear(cells)
			colX := kern.tb.Column(x)
			for i, t := range tail {
				cells[int(t)+int(colX[i]-1)]++
			}
		}
		return nil
	}

	pab := c.pair[c.pairBase(a, b):][:kk]
	if err := kern.popcountTriples(a, b, pab, cs, b+1, dst, w); err != nil {
		return err
	}
	for _, x := range cs {
		completeTriple(k, dst[(x-b-1)*kkk:][:kkk], pab, c.pair[c.pairBase(a, x):], c.pair[c.pairBase(b, x):])
	}
	return nil
}

// popcountTriples fills, for every triple (a, b, x), x in cs, the
// (k-1)³ cells with no value at k, at dst[(x-base)*k³:]. pab holds the
// k² cells of pair (a, b): a zero tail cell needs no popcount. w.buf
// is scratch; w.chk, when set, is ticked once per (tail cell, x).
func (kern *counter) popcountTriples(a, b int, pab []int32, cs []int, base int, dst []int32, w *worker) error {
	k, ix := kern.tb.K(), kern.ix
	l, kkk := k-1, k*k*k
	for va := 0; va < l; va++ {
		pa := ix.Posting(a, table.Value(va+1))
		for vb := 0; vb < l; vb++ {
			cell := (va*k + vb) * k
			if pab[va*k+vb] == 0 {
				for _, x := range cs {
					clear(dst[(x-base)*kkk+cell:][:l])
				}
				continue
			}
			copy(w.buf, pa)
			table.AndInto(w.buf, ix.Posting(b, table.Value(vb+1)))
			for _, x := range cs {
				if w.chk != nil {
					if err := w.chk.Tick(); err != nil {
						return err
					}
				}
				out := dst[(x-base)*kkk+cell:][:l]
				for vc := range out {
					out[vc] = int32(table.PopcountAnd(w.buf, ix.Posting(x, table.Value(vc+1))))
				}
			}
		}
	}
	return nil
}

// completeTriple fills the cells of triple (a, b, x) that have a value
// at k, given its (k-1)³ popcounted cells and its margins, the pairs
// (a, b), (a, x) and (b, x): each head-value plane vc < k-1 from pax
// and pbx, then the plane vc = k-1 from pab.
func completeTriple(k int, cells, pab, pax, pbx []int32) {
	l, kk := k-1, k*k
	for vc := 0; vc < l; vc++ {
		completeMargins(k, cells[vc:], kk, k, pax[vc:], k, pbx[vc:], k)
	}
	for t, s := range pab {
		for _, v := range cells[t*k : t*k+l] {
			s -= v
		}
		cells[t*k+l] = s
	}
}

// indexedCounter returns the popcount counter of tb when its TID index
// is already built and popcountWins holds, and nil otherwise: like
// SupportCount, one association table is not worth an index build.
func indexedCounter(tb *table.Table) *counter {
	if !popcountWins(tb.K(), tb.NumRows()) {
		return nil
	}
	if ix := tb.IndexIfBuilt(); ix != nil {
		return &counter{tb: tb, ix: ix}
	}
	return nil
}

// countAssociation fills the counts of at, whose tail has one or two
// attributes, by popcount: the pair or triple of its tail and head
// attributes is counted as CountContext counts it, in ascending
// attribute order, then read out tail-major.
func (kern *counter) countAssociation(at *AssociationTable) {
	k, kk := at.K, at.K*at.K
	var ab, sb [3]int
	attrs := append(append(ab[:0], at.Tail...), at.Head)
	s := append(sb[:0], attrs...)
	slices.Sort(s)
	val := make([]int32, len(s)*k)
	for i, u := range s {
		for v := range k {
			val[i*k+v] = int32(kern.ix.Count(u, table.Value(v+1)))
		}
	}
	var cells []int32
	if len(s) == 2 {
		cells = make([]int32, kk)
		kern.pairCells(s[0], s[1], cells, val, val[k:])
	} else {
		p := make([]int32, 3*kk) // pairs (s0,s1), (s0,s2), (s1,s2)
		kern.pairCells(s[0], s[1], p[:kk], val, val[k:])
		kern.pairCells(s[0], s[2], p[kk:2*kk], val, val[2*k:])
		kern.pairCells(s[1], s[2], p[2*kk:], val[k:], val[2*k:])
		cells = make([]int32, kk*k)
		// One triple is not worth polling a context: without a checker
		// popcountTriples cannot fail.
		w := &worker{buf: make([]uint64, kern.ix.Words())}
		_ = kern.popcountTriples(s[0], s[1], p[:kk], s[2:], s[2], cells, w)
		completeTriple(k, cells, p[:kk], p[kk:2*kk], p[2*kk:])
	}
	// An attribute's stride in cells is k to the number of larger ones.
	var stride [3]int
	for i, u := range attrs {
		stride[i] = 1
		for _, x := range s {
			if x > u {
				stride[i] *= k
			}
		}
	}
	nt := len(at.Tail)
	for row := range at.Counts {
		off, r := 0, row
		for i := nt - 1; i >= 0; i-- {
			off += r % k * stride[i]
			r /= k
		}
		hc := at.HeadCounts[row*k:][:k]
		var n int32
		for vh := range hc {
			hc[vh] = cells[off+vh*stride[nt]]
			n += hc[vh]
		}
		at.Counts[row] = n
	}
}

// completeMargins fills the last row and column of a k×k slice of
// cells whose leading (k-1)×(k-1) block is counted, from the slice's
// row and column sums: cell (i, j) is cells[i*ri+j*rj], row sum i is
// rows[i*rs] and column sum j is cols[j*cs].
func completeMargins(k int, cells []int32, ri, rj int, rows []int32, rs int, cols []int32, cs int) {
	l := k - 1
	for i := 0; i < l; i++ {
		s := rows[i*rs]
		for j := 0; j < l; j++ {
			s -= cells[i*ri+j*rj]
		}
		cells[i*ri+l*rj] = s
	}
	for j := 0; j <= l; j++ {
		s := cols[j*cs]
		for i := 0; i < l; i++ {
			s -= cells[i*ri+j*rj]
		}
		cells[l*ri+j*rj] = s
	}
}

// worker is the per-goroutine state of a parallel stage over tail-pair
// blocks.
type worker struct {
	chk   *runopt.Checker
	cs    []int    // heads x of the current block
	block []int32  // one block of triple cells (Build only)
	tail  []int32  // scan kernel: tail-pair cell offset per row
	buf   []uint64 // popcount kernel: tail-pair bitmap
	m0    []int32  // derive scratch: per-(vb,vc) max over va
	m1    []int32  // derive scratch: per-(va,vc) max over vb
}

// newWorkers makes cfg.workers() worker states; kern is the kernel
// their blocks are counted with, nil when they only derive. Deriving
// from resident counts only sums cells, about a millisecond on the
// benchmark's 30-attribute table, and split over two goroutines it ran
// slower (BenchmarkSeedAndAppend), so it gets one.
func newWorkers(ctx context.Context, cfg Config, c *Counts, kern *counter) []*worker {
	ws := make([]*worker, cfg.workers())
	if kern == nil {
		ws = ws[:1]
	}
	for i := range ws {
		w := &worker{
			chk: runopt.NewChecker(ctx, cfg.Run.Stride(), DefaultCheckEvery),
			m0:  make([]int32, c.k*c.k),
			m1:  make([]int32, c.k*c.k),
		}
		switch {
		case kern == nil:
		case kern.ix == nil:
			w.tail = make([]int32, c.rows)
		default:
			w.buf = make([]uint64, kern.ix.Words())
		}
		ws[i] = w
	}
	return ws
}

// forPairs runs fn on every unordered attribute pair (a, b), a < b, one
// goroutine per worker state, handing pairs out in (a, b) order.
func forPairs(ctx context.Context, n int, ws []*worker, fn func(w *worker, a, b int) error) error {
	pairs := make([][2]int, 0, n*(n-1)/2)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	return parallel(ctx, len(pairs), len(ws), func(w, j int) error {
		return fn(ws[w], pairs[j][0], pairs[j][1])
	})
}

// parallel runs fn(w, j) for every job j in [0, jobs), in order, on
// workers goroutines, w being the goroutine's index. It returns the
// first error fn reports, else ctx.Err().
func parallel(ctx context.Context, jobs, workers int, fn func(w, j int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j < jobs; j = int(next.Add(1)) - 1 {
				if errs[w] = fn(w, j); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// AddRowsContext folds appended rows (one value in 1..k per attribute)
// into the counts, polling ctx once per row. On cancellation the
// already-applied prefix is rolled back, so the tables always describe
// a whole number of appends.
func (c *Counts) AddRowsContext(ctx context.Context, rows [][]table.Value) error {
	for i, row := range rows {
		if len(row) != c.n {
			return fmt.Errorf("core: row %d has %d values, want %d", i, len(row), c.n)
		}
		for _, v := range row {
			if v < 1 || int(v) > c.k {
				return fmt.Errorf("core: row %d has value %d outside 1..%d", i, v, c.k)
			}
		}
	}
	chk := runopt.NewChecker(ctx, 1, 1)
	for i, row := range rows {
		if err := chk.Tick(); err != nil {
			c.SubRows(rows[:i])
			return err
		}
		c.apply(row, 1)
	}
	c.rows += len(rows)
	return nil
}

// SubRows removes rows previously folded in by AddRowsContext.
func (c *Counts) SubRows(rows [][]table.Value) {
	for _, row := range rows {
		c.apply(row, -1)
	}
}

func (c *Counts) apply(row []table.Value, sign int32) {
	n, k := c.n, c.k
	kk := k * k
	for a := 0; a < n; a++ {
		c.val[a*k+int(row[a])-1] += sign
	}
	for a := 0; a < n; a++ {
		va := int(row[a]) - 1
		pbase := c.pairOff[a]
		for b := a + 1; b < n; b++ {
			c.pair[(pbase+b-a-1)*kk+va*k+int(row[b])-1] += sign
		}
	}
	if c.triple == nil {
		return
	}
	kkk := kk * k
	for a := 0; a < n; a++ {
		va := int(row[a]) - 1
		offA := c.tripleOff[a]
		for b := a + 1; b < n; b++ {
			cell := (va*k + int(row[b]) - 1) * k
			tbase := offA[b-a-1]
			for x := b + 1; x < n; x++ {
				c.triple[(tbase+x-b-1)*kkk+cell+int(row[x])-1] += sign
			}
		}
	}
}
