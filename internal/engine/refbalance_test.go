package engine

import (
	"context"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vec"
)

// TestPooledOutputsRefBalance: every batch an operator builds (aggregate,
// sort and expression-projection output, limit's truncated view, push-SP
// satellite copies) is a pooled ColBatch, so once a query completes the
// live-batch gauge must be back at its baseline — page-frame caches evicted
// on both sides of the measurement.
func TestPooledOutputsRefBalance(t *testing.T) {
	cat := testDB(t, 3000)
	sales := cat.MustTable("sales")
	evict := func() {
		cat.Pool().EvictFile(sales.File.ID())
		cat.Pool().EvictFile(cat.MustTable("dept").File.ID())
	}
	sorted := func() plan.Node {
		return plan.NewSort(plan.NewScan(sales), []plan.SortKey{{Col: 2, Desc: true}, {Col: 0}})
	}
	exprProject := plan.NewProject(plan.NewScan(sales), []plan.ProjCol{
		{Name: "id", Kind: types.KindInt, Expr: expr.C(0, "id")},
		{Name: "twice", Kind: types.KindFloat, Expr: expr.NewArith(expr.Mul, expr.C(2, "amount"), expr.Float(2))},
	})
	cases := []struct {
		name  string
		cfg   Config
		roots []plan.Node
	}{
		{"aggregate", Config{}, []plan.Node{q1Plan(cat, 3)}},
		{"sort", Config{}, []plan.Node{sorted()}},
		{"limit", Config{}, []plan.Node{plan.NewLimit(sorted(), 1500), plan.NewLimit(plan.NewScan(sales), 700)}},
		{"expr-project", Config{}, []plan.Node{exprProject}},
		{"push-sp", Config{SP: true, Model: SPPush}, []plan.Node{q1Plan(cat, 3), q1Plan(cat, 3), q1Plan(cat, 3)}},
		{"push-sp-scan", Config{SP: true, Model: SPPush, SPStages: map[plan.Kind]bool{plan.KindScan: true}},
			[]plan.Node{plan.NewScan(sales), plan.NewScan(sales), sorted()}},
		{"pull-sp", Config{SP: true, Model: SPPull}, []plan.Node{sorted(), sorted(), q1Plan(cat, 3)}},
	}
	for _, tc := range cases {
		e := newTestEngine(cat, tc.cfg)
		evict()
		before := vec.LiveBatches()
		results, err := e.ExecuteBatch(context.Background(), tc.roots)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(results[0].Rows) == 0 {
			t.Fatalf("%s: empty result", tc.name)
		}
		waitStagesIdle(t, e)
		evict()
		if live := vec.LiveBatches(); live != before {
			t.Errorf("%s: LiveBatches = %d after the queries, baseline %d", tc.name, live, before)
		}
	}
}
