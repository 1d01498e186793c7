package cjoin

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/types"
)

// newOpCfg is newOp with an explicit config (fold toggles, worker counts).
func newOpCfg(t testing.TB, cat *storage.Catalog, cfg Config) *Operator {
	t.Helper()
	op, err := NewOperator(cat.MustTable("lo"), []DimSpec{
		{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0},
		{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(op.Close)
	return op
}

// slowStarDB rebuilds the starDB tables on a latency-charging disk with a
// tiny buffer pool, so fact sweeps take long enough that a second admission
// reliably lands mid-sweep. Pads are unique per row (starDB's constant pad
// dictionary-encodes into nothing, collapsing the fact table to a page or
// two — far too fast to graft against).
func slowStarDB(t testing.TB, n int, lat time.Duration) *storage.Catalog {
	t.Helper()
	src := starDB(t, n)
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{
		ReadLatency: lat, MaxConcurrent: 1,
	}), 4, true)
	pad := strings.Repeat("g", 60)
	for _, name := range []string{"lo", "cust", "part"} {
		from := src.MustTable(name)
		rows, err := from.File.AllRows()
		if err != nil {
			t.Fatal(err)
		}
		if name == "lo" {
			for i, r := range rows {
				nr := append(types.Row(nil), r...)
				nr[4] = types.NewString(pad + strconv.Itoa(i))
				rows[i] = nr
			}
		}
		to, err := cat.CreateTable(name, from.Schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := to.File.Append(rows...); err != nil {
			t.Fatal(err)
		}
		if err := to.File.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if np := cat.MustTable("lo").File.NumPages(); np < 5 {
		t.Fatalf("fact table spans only %d pages; sweeps too short to graft against", np)
	}
	return cat
}

// waitAdmitted blocks until the operator has admitted at least n queries.
func waitAdmitted(t *testing.T, op *Operator, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for op.Stats().Admitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d admissions", n)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// graftDims returns one of a few fixed dimension constraints; host and
// graft candidate always draw the same one (folding requires identical
// dimension semantics).
func graftDims(cat *storage.Catalog, r *rand.Rand) []plan.DimJoin {
	switch r.Intn(3) {
	case 0:
		return []plan.DimJoin{
			{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0,
				Pred:        expr.NewIn(expr.C(1, "region"), types.NewString("ASIA"), types.NewString("EUROPE")),
				PayloadCols: []int{1}},
			{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0,
				Pred:        expr.NewCmp(expr.LT, expr.C(1, "brand"), expr.Int(3)),
				PayloadCols: []int{1}},
		}
	case 1:
		return []plan.DimJoin{
			{Table: cat.MustTable("cust"), FactKeyCol: 1, DimKeyCol: 0, PayloadCols: []int{0, 1}},
		}
	default:
		return []plan.DimJoin{
			{Table: cat.MustTable("part"), FactKeyCol: 2, DimKeyCol: 0,
				Pred:        expr.NewCmp(expr.GE, expr.C(1, "brand"), expr.Int(1)),
				PayloadCols: []int{1}},
		}
	}
}

// randFoldAtom draws one atomic fact predicate over the lo table.
func randFoldAtom(r *rand.Rand) expr.Expr {
	switch r.Intn(4) {
	case 0:
		return expr.NewCmp(expr.GE, expr.C(3, "lo_rev"), expr.Float(float64(r.Intn(10000))/100))
	case 1:
		return expr.NewCmp(expr.LT, expr.C(0, "lo_id"), expr.Int(int64(r.Intn(4000))))
	case 2:
		lo := int64(r.Intn(3000))
		return expr.NewBetween(expr.C(0, "lo_id"), expr.Int(lo), expr.Int(lo+int64(r.Intn(2000))))
	default:
		return expr.NewIn(expr.C(2, "lo_pk"),
			types.NewInt(int64(r.Intn(21))), types.NewInt(int64(r.Intn(21))),
			types.NewInt(int64(r.Intn(21))), types.NewInt(int64(r.Intn(21))))
	}
}

// runStarAsync starts a query and returns a handle for its rows.
func runStarAsync(op *Operator, q *plan.StarQuery) func() ([]types.Row, error) {
	var rows []types.Row
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		err = op.Run(context.Background(), q, func(b *batch.Batch) error {
			rows = append(rows, b.RowsView()...)
			return nil
		})
	}()
	return func() ([]types.Row, error) {
		<-done
		return rows, err
	}
}

// TestGraftRandomImpliedPairsConcurrent is the fold equivalence property
// battery: 300 random (p, p AND extra) query pairs, the host admitted first
// and the candidate admitted mid-sweep so it grafts onto the host's bitmap
// slot. Both result streams must match a DisableFold operator running the
// identical pair, and a substantial share of the pairs must actually have
// folded.
func TestGraftRandomImpliedPairsConcurrent(t *testing.T) {
	cat := slowStarDB(t, 3000, 100*time.Microsecond)
	cat.MustTable("lo").ScanGroup().SetPrune(false)
	fold := newOpCfg(t, cat, Config{BatchSize: 64})
	nofold := newOpCfg(t, cat, Config{BatchSize: 64, DisableFold: true})
	r := rand.New(rand.NewSource(31))

	const waves = 300
	for wave := 0; wave < waves; wave++ {
		p := randFoldAtom(r)
		q := expr.NewAnd(p, randFoldAtom(r))
		dims := graftDims(cat, r)
		host := &plan.StarQuery{Fact: cat.MustTable("lo"), FactPred: p, FactCols: []int{0, 3}, Dims: dims}
		cand := &plan.StarQuery{Fact: cat.MustTable("lo"), FactPred: q, FactCols: []int{0, 3}, Dims: dims}

		base := fold.Stats().Admitted
		hostWait := runStarAsync(fold, host)
		waitAdmitted(t, fold, base+1)
		candWait := runStarAsync(fold, cand)

		hostRows, err := hostWait()
		if err != nil {
			t.Fatalf("wave %d host: %v", wave, err)
		}
		candRows, err := candWait()
		if err != nil {
			t.Fatalf("wave %d candidate: %v", wave, err)
		}
		mustEqualRows(t, hostRows, runStar(t, nofold, host))
		mustEqualRows(t, candRows, runStar(t, nofold, cand))
	}
	st := fold.Stats()
	if st.Grafted < waves/4 {
		t.Fatalf("only %d of %d pairs grafted; folding barely exercised", st.Grafted, waves)
	}
	if nofold.Stats().Grafted != 0 {
		t.Fatal("DisableFold operator reported grafts")
	}
	t.Logf("grafted %d of %d pairs, slot high water %d", st.Grafted, waves, st.SlotHighWater)
}

// TestGraftRecycleSlots: grafted admissions share their host's bitmap slot
// and release it exactly once when the last reader drains, so wave after
// wave of folded pairs keeps the slot arena at its floor — grafted-reader
// retirement leaks no slots.
func TestGraftRecycleSlots(t *testing.T) {
	cat := slowStarDB(t, 3000, 100*time.Microsecond)
	cat.MustTable("lo").ScanGroup().SetPrune(false)
	op := newOpCfg(t, cat, Config{BatchSize: 64})
	r := rand.New(rand.NewSource(83))

	const waves = 25
	for wave := 0; wave < waves; wave++ {
		p := randFoldAtom(r)
		dims := graftDims(cat, r)
		host := &plan.StarQuery{Fact: cat.MustTable("lo"), FactPred: p, FactCols: []int{0, 3}, Dims: dims}
		cand := &plan.StarQuery{Fact: cat.MustTable("lo"),
			FactPred: expr.NewAnd(p, randFoldAtom(r)), FactCols: []int{0, 3}, Dims: dims}

		base := op.Stats().Admitted
		hostWait := runStarAsync(op, host)
		waitAdmitted(t, op, base+1)
		candWait := runStarAsync(op, cand)
		if _, err := hostWait(); err != nil {
			t.Fatal(err)
		}
		if _, err := candWait(); err != nil {
			t.Fatal(err)
		}
	}
	st := op.Stats()
	if st.Grafted == 0 {
		t.Fatal("no wave grafted")
	}
	// One host slot live at a time plus bounded recycle slack: a leaked
	// graft hold would push the high water towards one slot per wave.
	if st.SlotHighWater > 4 {
		t.Fatalf("slot high water %d after %d folded waves; graft retirement leaks slots", st.SlotHighWater, waves)
	}
}

// TestGraftHostCancelConcurrent: canceling the host mid-sweep must not
// starve its grafted reader — the host keeps annotating the shared bitmap
// column (graft hold) until the graft's own sweep completes, and the
// graft's result stays complete and correct.
func TestGraftHostCancelConcurrent(t *testing.T) {
	cat := slowStarDB(t, 3000, 200*time.Microsecond)
	cat.MustTable("lo").ScanGroup().SetPrune(false)
	fold := newOpCfg(t, cat, Config{BatchSize: 64})
	nofold := newOpCfg(t, cat, Config{BatchSize: 64, DisableFold: true})
	r := rand.New(rand.NewSource(7321))

	canceled := 0
	for wave := 0; wave < 8; wave++ {
		p := randFoldAtom(r)
		dims := graftDims(cat, r)
		host := &plan.StarQuery{Fact: cat.MustTable("lo"), FactPred: p, FactCols: []int{0, 3}, Dims: dims}
		cand := &plan.StarQuery{Fact: cat.MustTable("lo"),
			FactPred: expr.NewAnd(p, randFoldAtom(r)), FactCols: []int{0, 3}, Dims: dims}

		baseAdm, baseGraft := fold.Stats().Admitted, fold.Stats().Grafted
		ctx, cancel := context.WithCancel(context.Background())
		hostDone := make(chan error, 1)
		go func() {
			hostDone <- fold.Run(ctx, host, func(b *batch.Batch) error { return nil })
		}()
		waitAdmitted(t, fold, baseAdm+1)
		candWait := runStarAsync(fold, cand)
		// Cancel the host as soon as the candidate is admitted; if it
		// folded, its whole sweep now rides on a canceled host's bits.
		waitAdmitted(t, fold, baseAdm+2)
		cancel()
		if err := <-hostDone; err == context.Canceled {
			canceled++
		}
		candRows, err := candWait()
		if err != nil {
			t.Fatalf("wave %d graft after host cancel: %v", wave, err)
		}
		mustEqualRows(t, candRows, runStar(t, nofold, cand))
		if fold.Stats().Grafted == baseGraft {
			t.Logf("wave %d did not fold (host finished first)", wave)
		}
	}
	if fold.Stats().Grafted == 0 {
		t.Fatal("no wave grafted; host-cancel path not exercised")
	}
	if canceled == 0 {
		t.Log("no host observed its cancellation mid-run (all sweeps completed first)")
	}
}

// TestFoldConcurrentTemplates runs the full 13-template SSB battery — two
// identical instances per template, all concurrent — on a folding operator
// and checks every result stream against a DisableFold operator. Identical
// templates fold with a nil residual, and cross-template subsumption may
// fold more; either way the streams must be identical.
func TestFoldConcurrentTemplates(t *testing.T) {
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 2048, true)
	db, err := ssb.Generate(cat, 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	dims := []DimSpec{
		{Table: db.Date, FactKeyCol: ssb.LOOrderDate, DimKeyCol: ssb.DDateKey},
		{Table: db.Customer, FactKeyCol: ssb.LOCustKey, DimKeyCol: ssb.CCustKey},
		{Table: db.Supplier, FactKeyCol: ssb.LOSuppKey, DimKeyCol: ssb.SSuppKey},
		{Table: db.Part, FactKeyCol: ssb.LOPartKey, DimKeyCol: ssb.PPartKey},
	}
	mkOp := func(cfg Config) *Operator {
		op, err := NewOperator(db.Lineorder, dims, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(op.Close)
		return op
	}
	fold := mkOp(Config{BatchSize: 256})
	nofold := mkOp(Config{BatchSize: 256, DisableFold: true})

	r := rand.New(rand.NewSource(5))
	insts := make([]ssb.Instance, 0, 2*len(ssb.AllTemplates))
	for _, tpl := range ssb.AllTemplates {
		in := ssb.Instantiate(db, tpl, r)
		insts = append(insts, in, in) // identical repeat: folds with nil residual
	}

	got := make([][]types.Row, len(insts))
	var wg sync.WaitGroup
	for i := range insts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rows []types.Row
			if err := fold.Run(context.Background(), insts[i].Star, func(b *batch.Batch) error {
				rows = append(rows, b.RowsView()...)
				return nil
			}); err != nil {
				t.Errorf("%s: %v", insts[i].Name, err)
				return
			}
			got[i] = rows
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := range insts {
		want := runStar(t, nofold, insts[i].Star)
		mustEqualRows(t, got[i], want)
	}
	t.Logf("fold stats: %+v", fold.Stats())
}
