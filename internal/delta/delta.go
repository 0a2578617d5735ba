// Package delta is the incremental mining subsystem: it turns a mined
// (Table, Model) pair into a live dataset that accepts appended
// observations and republishes an updated model without a full
// re-mine.
//
// # How it stays bit-identical to a full re-mine
//
// Every ACV the builder computes is an integer sum divided by the row
// count: ACV(T, {C}) = (Σ over tail cells of the max head-value joint
// count) / rows. The integer numerators are exactly maintainable under
// appends, so a Dataset keeps the builder's own joint-count tables
// (core.Counts) resident — per-attribute value counts, unordered-pair
// counts (k² cells per attribute pair), and unordered-triple counts
// (k³ cells per attribute triple) — and updates them in
// O(appended · n³) increment time per append, with no rescans of old
// rows. It then re-derives the model with core.DeriveContext, the very
// derive core.BuildContext runs on counts it has just made, so the
// integer sums, the float64 ACVs, the gamma-significance admissions
// and the edge order are those of a full build on the concatenated
// table. The differential tests in this package pin that equivalence,
// bit for bit, against a naive reference miner, across randomized
// append schedules.
//
// Counts are seeded once per Dataset by core.CountContext, with the
// builder's counting kernels (popcount over the TID index or a row
// scan, whichever the table's shape favours), in parallel over
// tail-pair blocks. A MaxTailSize=3 configuration would need 4-way
// joint counts to delta-update stage 3; instead the derive finishes
// stage 3 on the concatenated table, reading its 2-to-1 constituent
// ACVs from the maintained triples, at the cost of one stage-3 pass.
//
// # Structural sharing and fallback
//
// The emitted *core.Model is immutable and structurally shares the
// vertex-id slices of edges that also existed in the previous model
// (hypergraph.AddEdgeShared); only genuinely new edges allocate.
// Weights are stored by value, so shared slices are safe even though
// every ACV shifts when the denominator grows.
//
// If the joint-count tables would exceed Options.MaxCountBytes (large
// n·k), the Dataset degrades to a documented fallback: each append
// runs a full core.BuildContext on the concatenated table — still
// reusing the incrementally extended TID index where the popcount
// kernel runs — so correctness is
// unchanged and only the republish latency loses its incremental
// advantage.
package delta

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hypermine/internal/core"
	"hypermine/internal/table"
)

// DefaultMaxCountBytes bounds the joint-count tables at 256 MiB unless
// Options overrides it; past the bound the Dataset falls back to full
// re-mines per append.
const DefaultMaxCountBytes = 256 << 20

// Options tunes a Dataset.
type Options struct {
	// MaxCountBytes caps the persistent joint-count memory; 0 means
	// DefaultMaxCountBytes, negative means "no counts" (always fall
	// back to a full re-mine — used by tests to pin the fallback
	// path).
	MaxCountBytes int64
}

// Changes describes how one append moved the model, for the engine's
// targeted invalidation and for operator logs.
type Changes struct {
	// Appended is the number of observations this apply added. Zero
	// means the model is unchanged (Model returns the previous value).
	Appended int
	// EdgesBefore and EdgesAfter count hyperedges in the previous and
	// new model.
	EdgesBefore, EdgesAfter int
	// SharedEdges counts edges of the new model whose vertex-id slices
	// are structurally shared with the previous model.
	SharedEdges int
	// FullRebuild reports that this apply ran the full-re-mine
	// fallback instead of the count-maintained derivation.
	FullRebuild bool
}

// Unchanged reports whether the append was a no-op (zero rows), in
// which case every engine artifact of the previous generation remains
// exactly valid.
func (c Changes) Unchanged() bool { return c.Appended == 0 }

// Dataset is a live dataset: the latest published model plus the
// persistent joint counts that make the next append cheap. Methods are
// safe for concurrent use; appends serialize internally.
type Dataset struct {
	mu     sync.Mutex
	model  *core.Model
	opts   Options
	counts *core.Counts // nil = fallback mode (full re-mine per apply)
	bytes  int64        // resident size of counts
}

// New wraps an existing mined model into a live dataset, seeding the
// joint-count tables from the table's TID-bitset index (or arming the
// full-rebuild fallback if they would exceed the memory bound). The
// model must carry its training rows.
func New(m *core.Model, opts Options) (*Dataset, error) {
	return NewContext(context.Background(), m, opts)
}

// NewContext is New under a context; seeding polls ctx between joint
// cells and returns ctx.Err() promptly on cancellation.
func NewContext(ctx context.Context, m *core.Model, opts Options) (*Dataset, error) {
	if m == nil || m.H == nil {
		return nil, errors.New("delta: nil model")
	}
	if err := m.RequireRows(); err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	d := &Dataset{model: m, opts: opts}
	max := opts.MaxCountBytes
	if max == 0 {
		max = DefaultMaxCountBytes
	}
	if b := core.CountBytes(m.Table, m.Config); max > 0 && b <= max {
		c, err := core.CountContext(ctx, m.Table, m.Config)
		if err != nil {
			return nil, err
		}
		d.counts, d.bytes = c, b
	}
	return d, nil
}

// Model returns the latest model this dataset has published.
func (d *Dataset) Model() *core.Model {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.model
}

// CountBytes returns the resident size of the joint-count tables, or 0
// in fallback mode.
func (d *Dataset) CountBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// AppendRowsContext appends observations (row-major, one value per
// attribute in 1..K), delta-updates the joint counts and the TID
// index, and re-derives the model. It returns the new immutable model;
// the previous model and its table are untouched and keep serving. On
// any error — validation, cancellation — the dataset is unchanged.
func (d *Dataset) AppendRowsContext(ctx context.Context, rows [][]table.Value) (*core.Model, Changes, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	nt, err := d.model.Table.AppendRows(rows)
	if err != nil {
		return nil, Changes{}, err
	}
	return d.applyLocked(ctx, nt, rows)
}

// AppendRawContext is AppendRowsContext for column-major raw bytes
// (cols[j] holds appended values of attribute j), the wire format of
// the `:append` endpoint.
func (d *Dataset) AppendRawContext(ctx context.Context, cols [][]byte) (*core.Model, Changes, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	nt, err := d.model.Table.AppendRaw(cols)
	if err != nil {
		return nil, Changes{}, err
	}
	added := nt.NumRows() - d.model.Table.NumRows()
	rows := make([][]table.Value, added)
	base := d.model.Table.NumRows()
	for i := range rows {
		if err := ctx.Err(); err != nil {
			return nil, Changes{}, err
		}
		rows[i] = nt.Row(base+i, nil)
	}
	return d.applyLocked(ctx, nt, rows)
}

// applyLocked publishes nt (the old table plus rows) as the new model.
// Caller holds d.mu; nt was produced by an Append on d.model.Table.
func (d *Dataset) applyLocked(ctx context.Context, nt *table.Table, rows [][]table.Value) (*core.Model, Changes, error) {
	old := d.model
	if len(rows) == 0 {
		// A no-op append changes no count and no ACV: the previous
		// model is already the model of the concatenated table.
		return old, Changes{EdgesBefore: old.H.NumEdges(), EdgesAfter: old.H.NumEdges()}, nil
	}
	ch := Changes{Appended: len(rows), EdgesBefore: old.H.NumEdges()}
	var m *core.Model
	if d.counts != nil {
		if err := d.counts.AddRowsContext(ctx, rows); err != nil {
			return nil, Changes{}, err
		}
		var err error
		m, ch.SharedEdges, err = core.DeriveContext(ctx, nt, old.Config, d.counts, old.H)
		if err != nil {
			// Roll the counts back so the dataset still matches
			// d.model exactly; a canceled apply must leave no trace.
			d.counts.SubRows(rows)
			return nil, Changes{}, err
		}
	} else {
		ch.FullRebuild = true
		var err error
		m, err = core.BuildContext(ctx, nt, old.Config)
		if err != nil {
			return nil, Changes{}, err
		}
	}
	ch.EdgesAfter = m.H.NumEdges()
	d.model = m
	return m, ch, nil
}
