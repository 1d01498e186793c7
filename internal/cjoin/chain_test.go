package cjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/types"
)

// star4Sizes are the row counts of starDB4's dimensions d0..d3.
var star4Sizes = [4]int{10, 25, 40, 7}

// star4Key is the join key of row i of dimension j: d0 and d1 are dense
// ints (direct index), d2's keys are 1000 apart (hash slots) and d3's are
// strings (dictionary codes, probed through the Datum path).
func star4Key(j, i int) types.Datum {
	switch j {
	case 2:
		return types.NewInt(int64(i) * 1000)
	case 3:
		return types.NewString(fmt.Sprintf("s%d", i))
	}
	return types.NewInt(int64(i))
}

// starDB4 builds a four-dimension star schema:
//
//	f(id int, k0 int, k1 int, k2 int, k3 string, rev float)  fact, n rows
//	dj(k, attr int)                                          star4Sizes[j] rows
//
// Every fact key column also draws the one key with no dimension row, so
// each dimension produces probe misses.
func starDB4(t testing.TB, n int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 512, true)
	f, err := cat.CreateTable("f", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "k0", Kind: types.KindInt},
		types.Column{Name: "k1", Kind: types.KindInt},
		types.Column{Name: "k2", Kind: types.KindInt},
		types.Column{Name: "k3", Kind: types.KindString},
		types.Column{Name: "rev", Kind: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	rows := make([]types.Row, n)
	for i := range rows {
		row := types.Row{types.NewInt(int64(i))}
		for j, size := range star4Sizes {
			row = append(row, star4Key(j, r.Intn(size+1))) // size has no row
		}
		rows[i] = append(row, types.NewFloat(float64(r.Intn(10000))/100))
	}
	if err := f.File.Append(rows...); err != nil {
		t.Fatal(err)
	}
	if err := f.File.Seal(); err != nil {
		t.Fatal(err)
	}
	for j, size := range star4Sizes {
		kind := types.KindInt
		if j == 3 {
			kind = types.KindString
		}
		d, err := cat.CreateTable(fmt.Sprintf("d%d", j), types.NewSchema(
			types.Column{Name: "k", Kind: kind},
			types.Column{Name: "attr", Kind: types.KindInt},
		))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < size; i++ {
			if err := d.File.Append(types.Row{star4Key(j, i), types.NewInt(int64(i % 5))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.File.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// bareOp4 builds an operator shell over starDB4 with its shared dimension
// tables, enough to drive workers directly without starting the pipeline.
func bareOp4(t testing.TB, cat *storage.Catalog) *Operator {
	t.Helper()
	cfg, err := Config{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	op := &Operator{fact: cat.MustTable("f"), byName: map[string]int{}, cfg: cfg}
	for j := range star4Sizes {
		name := fmt.Sprintf("d%d", j)
		spec := DimSpec{Table: cat.MustTable(name), FactKeyCol: 1 + j, DimKeyCol: 0}
		tab, err := newDimTable(j, spec)
		if err != nil {
			t.Fatal(err)
		}
		op.specs = append(op.specs, spec)
		op.byName[name] = j
		op.tables = append(op.tables, tab)
	}
	return op
}

// star4Query builds a query over starDB4 joining the dimensions in dims,
// each with the predicate attr < attrLT (none when attrLT < 0), and with
// the fact predicate rev >= rev (none when rev < 0).
func star4Query(cat *storage.Catalog, rev float64, dims []int, attrLT []int64) *plan.StarQuery {
	q := &plan.StarQuery{Fact: cat.MustTable("f"), FactCols: []int{0, 5}}
	if rev >= 0 {
		q.FactPred = expr.NewCmp(expr.GE, expr.C(5, "rev"), expr.Float(rev))
	}
	for i, j := range dims {
		d := plan.DimJoin{
			Table: cat.MustTable(fmt.Sprintf("d%d", j)), FactKeyCol: 1 + j, DimKeyCol: 0,
			PayloadCols: []int{1},
		}
		if attrLT[i] >= 0 {
			d.Pred = expr.NewCmp(expr.LT, expr.C(1, "attr"), expr.Int(attrLT[i]))
		}
		q.Dims = append(q.Dims, d)
	}
	return q
}

// randStar4 draws query i of a random set: every fourth query has no fact
// predicate, every fourth (offset by one) joins a single dimension, and the
// rest join a random non-empty subset of the four.
func randStar4(r *rand.Rand, cat *storage.Catalog, i int) *plan.StarQuery {
	rev := float64(r.Intn(80))
	if i%4 == 0 {
		rev = -1
	}
	var dims []int
	if i%4 == 1 {
		dims = []int{r.Intn(4)}
	} else {
		for len(dims) == 0 {
			for j := 0; j < 4; j++ {
				if r.Intn(2) == 0 {
					dims = append(dims, j)
				}
			}
		}
	}
	attrLT := make([]int64, len(dims))
	for k := range attrLT {
		attrLT[k] = int64(r.Intn(7)) - 1 // -1: no dimension predicate
	}
	return star4Query(cat, rev, dims, attrLT)
}

// splitStar4 draws query i of n queries split over two disjoint fact
// ranges: all but the last join d0 over rev >= 50, the last joins d1 over
// rev < 50. Every tuple carries the bits of one side only, so each of d0
// and d1 lets about half the tuples pass unprobed, between tuples it drops.
func splitStar4(cat *storage.Catalog, i, n int) *plan.StarQuery {
	if i == n-1 {
		q := star4Query(cat, -1, []int{1}, []int64{3})
		q.FactPred = expr.NewCmp(expr.LT, expr.C(5, "rev"), expr.Float(50))
		return q
	}
	return star4Query(cat, 50, []int{0}, []int64{int64(i % 6)})
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for pos := 0; pos <= len(p); pos++ {
			q := append(append(append([]int{}, p[:pos]...), n-1), p[pos:]...)
			out = append(out, q)
		}
	}
	return out
}

// copyItem returns a fresh item holding master's live tuples, with every
// joined-entry slot set to fill so a slot the probe failed to write shows.
func copyItem(master *item, fill int32) *item {
	it := &item{cols: master.cols, page: master.page}
	it.ensure(master.cols.Len(), master.stride, master.ndims)
	copy(it.rowIdx, master.rowIdx[:master.n])
	copy(it.words, master.words[:master.n*master.stride])
	it.n = master.n
	for i := range it.dimEnt {
		it.dimEnt[i] = fill
	}
	return it
}

// TestRandomProbeOrderInvariant pins the exactness of the adaptive chain
// order: for random query sets (some predicate-free, some joining a single
// dimension or a subset, and sets of more than 64 queries so bitmaps span
// several words), one annotated page probed through every one of the 24
// orders of a four-dimension chain leaves the same live tuples, bitmaps and
// joined entries — for each surviving tuple, the entry of every dimension
// one of its queries references.
func TestRandomProbeOrderInvariant(t *testing.T) {
	cat := starDB4(t, 3000)
	op := bareOp4(t, cat)
	npages := op.fact.File.NumPages()
	perms := permutations(4)
	if len(perms) != 24 {
		t.Fatalf("%d permutations, want 24", len(perms))
	}
	r := rand.New(rand.NewSource(17))
	random := func(i int) *plan.StarQuery { return randStar4(r, cat, i) }
	for round, set := range []struct {
		n     int
		query func(i int) *plan.StarQuery
	}{
		{4, random}, {23, random}, {70, random}, {131, random},
		{70, func(i int) *plan.StarQuery { return splitStar4(cat, i, 70) }},
	} {
		nq := set.n
		w := newWorker(op, nil, nil)
		subs := make([]*subscription, nq)
		for i := range subs {
			sub, err := op.newSubscription(set.query(i))
			if err != nil {
				t.Fatal(err)
			}
			sub.id = i
			subs[i] = sub
			w.admit(sub)
		}
		page := round % npages
		cb, err := op.fact.File.PageCols(page)
		if err != nil {
			t.Fatal(err)
		}
		master := &item{cols: cb, page: page}
		w.annotate(master, w.active, w.nslots)
		if wantStride := (nq + 63) / 64; master.stride != wantStride {
			t.Fatalf("round %d: stride %d, want %d", round, master.stride, wantStride)
		}
		if master.n == 0 {
			t.Fatalf("round %d: annotate kept no tuples", round)
		}
		checkAnnotated(t, master, subs)

		var ref *item
		for p, perm := range perms {
			it := copyItem(master, int32(-1-p))
			for _, d := range perm {
				w.dims[d].processTuples(it)
			}
			if p == 0 {
				ref = it
				if bitvec.CountWords(it.words[:it.n*it.stride]) >= bitvec.CountWords(master.words[:master.n*master.stride]) {
					t.Fatalf("round %d: the chain cleared no bits; the test would prove nothing", round)
				}
				continue
			}
			if it.n != ref.n {
				t.Fatalf("round %d order %v: n = %d, want %d", round, perm, it.n, ref.n)
			}
			for i := 0; i < ref.n; i++ {
				if it.rowIdx[i] != ref.rowIdx[i] {
					t.Fatalf("round %d order %v: rowIdx[%d] = %d, want %d", round, perm, i, it.rowIdx[i], ref.rowIdx[i])
				}
			}
			for i := 0; i < ref.n*ref.stride; i++ {
				if it.words[i] != ref.words[i] {
					t.Fatalf("round %d order %v: words[%d] = %#x, want %#x", round, perm, i, it.words[i], ref.words[i])
				}
			}
			for i := 0; i < ref.n; i++ {
				row := int(ref.rowIdx[i])
				for d := 0; d < ref.ndims; d++ {
					referenced := false
					bitvec.ForEachWords(ref.words[i*ref.stride:(i+1)*ref.stride], func(q int) {
						referenced = referenced || subs[q].dimRef[d]
					})
					if !referenced {
						continue
					}
					if got, want := it.dimEnt[row*ref.ndims+d], ref.dimEnt[row*ref.ndims+d]; got != want || want < 0 {
						t.Fatalf("round %d order %v: tuple %d dim %d entry = %d, want %d", round, perm, i, d, got, want)
					}
				}
			}
		}
		cb.Release()
	}
}

// checkAnnotated compares an annotated item with its definition: bit q of
// a page row is set iff query q has no fact predicate or the row satisfies
// it, and exactly the rows with some bit set are live, in page order.
func checkAnnotated(t *testing.T, it *item, subs []*subscription) {
	t.Helper()
	want := make([]uint64, it.stride)
	n := 0
	for r := 0; r < it.cols.Len(); r++ {
		clear(want)
		row := it.cols.Row(r)
		for _, sub := range subs {
			if sub.q.FactPred == nil || sub.q.FactPred.Eval(row).Bool() {
				want[sub.id/64] |= 1 << (uint(sub.id) % 64)
			}
		}
		if !bitvec.AnyWords(want) {
			continue
		}
		if n >= it.n || int(it.rowIdx[n]) != r {
			t.Fatalf("annotate: live tuple %d is not page row %d", n, r)
		}
		for k, w := range want {
			if got := it.words[n*it.stride+k]; got != w {
				t.Fatalf("annotate: row %d word %d = %#x, want %#x", r, k, got, w)
			}
		}
		n++
	}
	if n != it.n {
		t.Fatalf("annotate kept %d tuples, want %d", it.n, n)
	}
}

// TestUnreferencedDimensionNotProbed pins the skip's exactness and the
// Probes counter: with one single-dimension query active at a time, the
// other dimension is never probed, so Probes grows by exactly the tuples
// reaching the chain (fact tuples in minus those dropped at annotate); a
// query joining no dimension costs no probe at all; and every result
// equals the nested-loop reference.
func TestUnreferencedDimensionNotProbed(t *testing.T) {
	cat := starDB(t, 3000)
	op := newOp(t, cat)
	custOnly := asiaEuropeQuery(cat, 0, 20)
	custOnly.Dims = custOnly.Dims[:1]
	partOnly := asiaEuropeQuery(cat, 2, 0)
	partOnly.FactPred = nil
	partOnly.Dims = partOnly.Dims[1:]
	noDims := &plan.StarQuery{
		Fact:     cat.MustTable("lo"),
		FactPred: expr.NewCmp(expr.GE, expr.C(3, "lo_rev"), expr.Float(50)),
		FactCols: []int{0, 3},
	}
	for _, tc := range []struct {
		name   string
		q      *plan.StarQuery
		probes bool
	}{
		{"cust-only", custOnly, true},
		{"part-only", partOnly, true},
		{"no-dims", noDims, false},
	} {
		before := op.Stats()
		mustEqualRows(t, runStar(t, op, tc.q), evalStarNaive(t, tc.q))
		after := op.Stats()
		reaching := (after.FactTuplesIn - before.FactTuplesIn) - (after.DroppedAtScan - before.DroppedAtScan)
		probes := after.Probes - before.Probes
		want := int64(0)
		if tc.probes {
			want = reaching
		}
		if reaching == 0 || probes != want {
			t.Errorf("%s: %d probes for %d tuples reaching the chain, want %d", tc.name, probes, reaching, want)
		}
	}
}

// TestReorderSortsByPassRate pins the adaptive order: most selective
// dimension first by out/in, a dimension that saw no tuples last, ties in
// declaration order, and counters halved afterwards.
func TestReorderSortsByPassRate(t *testing.T) {
	w := &worker{dims: make([]dimState, 5), order: []int{4, 3, 2, 1, 0}}
	counts := [][2]int64{
		{100, 50}, // 0.5
		{100, 10}, // 0.1
		{0, 0},    // no tuples: counts as 1
		{40, 20},  // 0.5, ties with 0
		{100, 99}, // 0.99
	}
	for d, c := range counts {
		w.dims[d].in, w.dims[d].out = c[0], c[1]
	}
	w.reorder()
	if want := []int{1, 0, 3, 4, 2}; fmt.Sprint(w.order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", w.order, want)
	}
	for d, c := range counts {
		if w.dims[d].in != c[0]>>1 || w.dims[d].out != c[1]>>1 {
			t.Errorf("dim %d counters = %d/%d, want halved %d/%d", d, w.dims[d].out, w.dims[d].in, c[1]>>1, c[0]>>1)
		}
	}
}
