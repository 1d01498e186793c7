package batch

import (
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

func TestCloneIsDeep(t *testing.T) {
	b := Of(types.Row{types.NewInt(1), types.NewString("x")}, types.Row{types.NewInt(2), types.NewString("y")})
	c := b.Clone()
	bcb, _ := b.Cols()
	ccb, csel := c.Cols()
	if ccb == bcb || csel != nil {
		t.Fatal("clone must own a fresh column batch covering every row")
	}
	if &ccb.Col(0).I[0] == &bcb.Col(0).I[0] {
		t.Fatal("clone shares payload arrays with the original")
	}
	if got := c.RowsView(); len(got) != 2 || got[1][0].I != 2 || got[1][1].S != "y" {
		t.Fatalf("clone rows = %v", got)
	}
	b.Done()
	c.Done()
}

// TestCloneIsDeepCopy: a push-model satellite copy must survive the
// original's ColBatch being recycled and reused by another producer.
func TestCloneIsDeepCopy(t *testing.T) {
	cb := viewFixture(t, 8)
	b := FromView(cb, []int32{1, 4, 6}, nil)
	c := b.Clone()
	b.Done() // the original's ColBatch returns to the pool
	for i := 0; i < 8; i++ {
		// Reuse pooled batches with different contents.
		o := vec.Get(2)
		for r := 0; r < 8; r++ {
			o.Col(0).AppendDatum(types.NewInt(-1))
			o.Col(1).AppendDatum(types.NewString("overwritten"))
		}
		o.Seal(8)
		defer o.Release()
	}
	rows := c.RowsView()
	if len(rows) != 3 {
		t.Fatalf("clone has %d rows, want 3", len(rows))
	}
	for i, want := range []int64{1, 4, 6} {
		if rows[i][0].I != want || rows[i][1].S != "s" {
			t.Fatalf("clone row %d = %v, want [%d s]", i, rows[i], want)
		}
	}
	c.Done()
}
