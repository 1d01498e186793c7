// Package batch defines the unit of data flow between operators: a page of
// rows. QPipe exchanges data between packets page-at-a-time rather than
// tuple-at-a-time; batches are those pages. The push-based SP model deep-
// copies batches into each satellite's FIFO (the serialization point the
// paper identifies), while the pull-based SPL shares a single immutable
// batch among all consumers.
//
// # Columnar exchange
//
// Every batch is a columnar view: a refcounted vec.ColBatch plus a selection
// vector naming the batch's rows within it. A scan publishes (page batch,
// surviving selection), a filter narrows the selection and republishes the
// same page batch, a projection republishes a zero-copy column remap, the
// CJOIN distributor publishes its routed output columns directly, and
// operators that compute new rows (aggregate, sort, expression projection)
// append them into a fresh pooled ColBatch. Operators therefore see exactly
// one batch form. Row materialization is lazy (RowsView) and happens at most
// once per batch, only for consumers that genuinely need rows (sort,
// expression projection and aggregation, the root drain).
//
// Batches are reference-counted so the underlying ColBatch recycles
// deterministically: the creator's reference transfers downstream with the
// batch, every additional concurrent consumer (an SPL reader) takes its own
// via Retain, and each consumer calls Done when finished with the batch.
// The last Done releases the ColBatch back to its pool. A sealed ColBatch
// is immutable, so any number of consumers may read the view concurrently
// through Cols while they hold a reference.
package batch

import (
	"sync"
	"sync/atomic"

	"repro/internal/types"
	"repro/internal/vec"
)

// DefaultCapacity is the default number of rows per batch. It plays the role
// of the page size in the original page-based exchange.
const DefaultCapacity = 1024

// Batch is a page of rows in columnar form. Once a producer hands a batch
// downstream the batch must be treated as immutable; this is what makes the
// zero-copy SPL hand-off safe.
type Batch struct {
	cb  *vec.ColBatch // the batch owns references counted by refs
	sel []int32       // rows of the batch within cb; nil = every row of cb

	// back optionally supplies a shared full-width row view of cb (row i of
	// back is row i of cb) for lazy materialization — scans pass the buffer
	// pool's per-frame row cache so row-consuming plans keep amortizing row
	// materialization across sweeps and queries. May return nil, in which
	// case rows materialize from cb directly.
	back func() []types.Row

	refs atomic.Int32 // outstanding batch references

	mu   sync.Mutex // guards lazy row materialization
	rows []types.Row
	mat  bool
}

// FromView builds a batch: row i of the batch is row sel[i] of cb (sel nil
// means row i is row i of cb). Ownership of the caller's reference on cb
// moves into the batch; the batch releases cb when its own reference count
// (the implicit creator reference plus any Retains) drops to zero via Done.
// back, when non-nil, supplies a shared full-width row view of cb for lazy
// materialization (may return nil on failure; rows then come from cb).
func FromView(cb *vec.ColBatch, sel []int32, back func() []types.Row) *Batch {
	b := &Batch{cb: cb, sel: sel, back: back}
	b.refs.Store(1)
	return b
}

// Of builds a batch holding the given rows (testing convenience).
func Of(rows ...types.Row) *Batch {
	width := 0
	if len(rows) > 0 {
		width = len(rows[0])
	}
	cb := vec.Get(width)
	for _, r := range rows {
		cb.AppendRow(r)
	}
	cb.Seal(len(rows))
	return FromView(cb, nil, nil)
}

// Retain takes an additional reference for a new concurrent consumer. Every
// Retain must be paired with a Done.
func (b *Batch) Retain() { b.refs.Add(1) }

// Done releases one reference; the last release returns the underlying
// ColBatch to its pool. A consumer must not touch the batch (or slices
// obtained from Cols) after its Done.
func (b *Batch) Done() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		b.cb.Release()
	case n < 0:
		panic("batch: Done without matching reference")
	}
}

// Cols returns the columnar view: the column batch and the ascending
// selection naming this batch's rows within it (nil = every row). The view
// is read-only and valid while the caller holds a reference (i.e. until its
// Done); concurrent consumers may all read it.
func (b *Batch) Cols() (cb *vec.ColBatch, sel []int32) { return b.cb, b.sel }

// Backing returns the batch's backing-row provider (see FromView), for
// operators that republish a narrowed view of the same column batch.
func (b *Batch) Backing() func() []types.Row { return b.back }

// RowsView returns the batch's rows, materializing them from the columnar
// view on first use (at most once per batch, shared by all consumers). The
// caller must hold a reference. The returned rows are immutable and remain
// valid after the batch's ColBatch is recycled — datums copy out payloads
// and string bytes are independent heap objects.
func (b *Batch) RowsView() []types.Row {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.mat {
		return b.rows
	}
	var back []types.Row
	if b.back != nil {
		back = b.back()
	}
	sel := b.sel
	switch {
	case back != nil && sel != nil:
		rows := make([]types.Row, len(sel))
		for i, r := range sel {
			rows[i] = back[r]
		}
		b.rows = rows
	case back != nil:
		b.rows = back
	case sel != nil:
		rows := make([]types.Row, len(sel))
		for i, r := range sel {
			rows[i] = b.cb.Row(int(r))
		}
		b.rows = rows
	default:
		b.rows = b.cb.Rows()
	}
	b.mat = true
	return b.rows
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.cb.Len()
}

// Clone returns a deep copy of the batch: a fresh pooled ColBatch holding
// the selected rows column by column, independent of the original's
// ColBatch. This is the per-consumer copy the push-based SP model performs
// — its cost is exactly the overhead Scenario I measures. The caller must
// hold a reference while cloning.
func (b *Batch) Clone() *Batch {
	sel := b.sel
	if sel == nil {
		sel = b.cb.AllSel()
	}
	c := vec.Get(b.cb.NumCols())
	for i := 0; i < b.cb.NumCols(); i++ {
		c.Col(i).AppendGather(b.cb.Col(i), sel)
	}
	c.Seal(len(sel))
	return FromView(c, nil, nil)
}
