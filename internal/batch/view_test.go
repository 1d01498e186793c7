package batch

import (
	"sync"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

func viewFixture(t *testing.T, nrows int) *vec.ColBatch {
	t.Helper()
	cb := vec.Get(2)
	for i := 0; i < nrows; i++ {
		cb.Col(0).AppendDatum(types.NewInt(int64(i)))
		cb.Col(1).AppendDatum(types.NewString("s"))
	}
	cb.Seal(nrows)
	return cb
}

func TestViewBatchColsAndLen(t *testing.T) {
	cb := viewFixture(t, 8)
	sel := []int32{1, 3, 5}
	b := FromView(cb, sel, nil)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	gcb, gsel := b.Cols()
	if gcb != cb || len(gsel) != 3 {
		t.Fatalf("Cols() = %v sel=%v", gcb, gsel)
	}
	rows := b.RowsView()
	if len(rows) != 3 || rows[1][0].I != 3 {
		t.Fatalf("RowsView = %v", rows)
	}
	// Identity selection covers every row.
	cb2 := viewFixture(t, 4)
	b2 := FromView(cb2, nil, nil)
	if b2.Len() != 4 || len(b2.RowsView()) != 4 {
		t.Fatalf("identity view: len=%d rows=%d", b2.Len(), len(b2.RowsView()))
	}
	b.Done()
	b2.Done()
}

func TestViewBatchBackingRows(t *testing.T) {
	cb := viewFixture(t, 4)
	shared := cb.Rows()
	calls := 0
	b := FromView(cb, []int32{0, 2}, func() []types.Row {
		calls++
		return shared
	})
	r1 := b.RowsView()
	r2 := b.RowsView()
	if calls != 1 {
		t.Fatalf("backing called %d times, want 1 (materialize once)", calls)
	}
	if &r1[0][0] != &r2[0][0] {
		t.Fatal("RowsView must return the same materialization")
	}
	if r1[1][0].I != 2 || &r1[1][0] != &shared[2][0] {
		t.Fatal("materialized rows must pick from the backing view")
	}
	b.Done()
}

func TestViewBatchBackingFailureFallsBack(t *testing.T) {
	cb := viewFixture(t, 4)
	b := FromView(cb, []int32{1}, func() []types.Row { return nil })
	rows := b.RowsView()
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Fatalf("fallback rows = %v", rows)
	}
	b.Done()
}

func TestViewBatchRefcount(t *testing.T) {
	cb := viewFixture(t, 2)
	b := FromView(cb, nil, nil)
	b.Retain()
	b.Retain()
	b.Done()
	b.Done()
	rows := b.RowsView() // still one reference outstanding
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	b.Done() // last reference: cb returns to the pool
	defer func() {
		if recover() == nil {
			t.Fatal("Done past zero must panic")
		}
	}()
	b.Done()
}

func TestViewBatchConcurrentRowsView(t *testing.T) {
	cb := viewFixture(t, 64)
	b := FromView(cb, nil, nil)
	var wg sync.WaitGroup
	rows := make([][]types.Row, 8)
	for i := range rows {
		wg.Add(1)
		b.Retain()
		go func(i int) {
			defer wg.Done()
			rows[i] = b.RowsView()
			b.Done()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(rows); i++ {
		if &rows[i][0][0] != &rows[0][0][0] {
			t.Fatal("concurrent consumers must share one materialization")
		}
	}
	b.Done()
}

func TestOfBuildsView(t *testing.T) {
	b := Of(types.Row{types.NewInt(9)}, types.Row{types.NewInt(10)})
	cb, sel := b.Cols()
	if cb.Len() != 2 || sel != nil || b.Len() != 2 {
		t.Fatalf("Of view: cb.Len=%d sel=%v Len=%d", cb.Len(), sel, b.Len())
	}
	if b.Backing() != nil {
		t.Fatal("Of batch reports a backing provider")
	}
	if got := b.RowsView(); len(got) != 2 || got[1][0].I != 10 {
		t.Fatalf("RowsView = %v", got)
	}
	e := Of()
	if e.Len() != 0 || len(e.RowsView()) != 0 {
		t.Fatal("empty Of batch must have no rows")
	}
	e.Done()
	b.Done()
}
