package main

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/types"
)

// realAnswer runs one SSB query on a small database and returns its rows.
func realAnswer(t *testing.T) []types.Row {
	t.Helper()
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), 512, true)
	db, err := ssb.Generate(cat, 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := ssb.Instantiate(db, ssb.Q3_1, rand.New(rand.NewSource(1)))
	res, err := engine.New(cat, engine.Config{}).Execute(context.Background(), in.Plan(false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 3 {
		t.Fatalf("Q3.1 returned %d rows; the test needs several", len(res.Rows))
	}
	return res.Rows
}

func cloneRows(rows []types.Row) []types.Row {
	out := make([]types.Row, len(rows))
	for i, r := range rows {
		out[i] = append(types.Row(nil), r...)
	}
	return out
}

func newTestChecker(rows []types.Row) *checker {
	ref := &reference{want: []uint64{digest(rows)}, have: []bool{true}}
	return newChecker(ref, func(int) string { return "Q3.1" })
}

func TestCheckerFlagsWrongAnswers(t *testing.T) {
	rows := realAnswer(t)

	reordered := cloneRows(rows)
	rand.New(rand.NewSource(2)).Shuffle(len(reordered), func(i, j int) {
		reordered[i], reordered[j] = reordered[j], reordered[i]
	})
	if !newTestChecker(rows).check(0, reordered) {
		t.Error("the same rows in another order were flagged")
	}

	if newTestChecker(rows).check(0, rows[:len(rows)-1]) {
		t.Error("an answer missing its last row was not flagged")
	}

	perturbed := cloneRows(rows)
	sum := &perturbed[0][len(perturbed[0])-1] // the revenue sum
	if sum.K != types.KindFloat {
		t.Fatalf("last column is kind %v, want a sum", sum.K)
	}
	sum.F++
	c := newTestChecker(rows)
	if c.check(0, perturbed) {
		t.Error("an answer with one perturbed sum was not flagged")
	}
	if c.mismatches.Load() != 1 {
		t.Errorf("mismatches = %d, want 1", c.mismatches.Load())
	}
}

// An instance without a reference answer is still checked against its own
// first answer.
func TestCheckerFlagsInconsistentRepeats(t *testing.T) {
	rows := realAnswer(t)
	c := newChecker(&reference{want: []uint64{0}, have: []bool{false}}, func(int) string { return "Q3.1" })
	if !c.check(0, rows) || !c.check(0, cloneRows(rows)) {
		t.Fatal("identical repeats were flagged")
	}
	if c.check(0, rows[1:]) {
		t.Error("a repeat that lost a row was not flagged")
	}
	if c.checked.Load() != 0 {
		t.Errorf("checked = %d answers against a reference that does not exist", c.checked.Load())
	}
}
