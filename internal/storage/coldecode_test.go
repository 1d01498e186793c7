package storage

import (
	"math/rand"
	"testing"

	"repro/internal/types"
)

// randSchemaRows derives a random schema and rows under it. Values mostly
// match the declared column kind, with occasional NULLs and kind mismatches
// (the encoding is per-datum tagged, so heterogeneous columns are legal and
// the columnar decoder must preserve them).
func randSchemaRows(r *rand.Rand) (*types.Schema, []types.Row) {
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindDate, types.KindBool}
	ncols := 1 + r.Intn(6)
	cols := make([]types.Column, ncols)
	for i := range cols {
		cols[i] = types.Column{Name: string(rune('a' + i)), Kind: kinds[r.Intn(len(kinds))]}
	}
	schema := types.NewSchema(cols...)
	nrows := r.Intn(400)
	rows := make([]types.Row, nrows)
	for i := range rows {
		row := make(types.Row, ncols)
		for c := range row {
			k := cols[c].Kind
			if r.Intn(20) == 0 {
				k = kinds[r.Intn(len(kinds))] // occasional mixed-kind value
			}
			switch {
			case r.Intn(15) == 0:
				row[c] = types.Null
			case k == types.KindInt:
				row[c] = types.NewInt(r.Int63n(1 << 40))
			case k == types.KindFloat:
				row[c] = types.NewFloat(r.NormFloat64() * 1e6)
			case k == types.KindString:
				b := make([]byte, r.Intn(24))
				for j := range b {
					b[j] = byte('a' + r.Intn(26))
				}
				row[c] = types.NewString(string(b))
			case k == types.KindDate:
				row[c] = types.NewDate(r.Int63n(30000))
			default:
				row[c] = types.NewBool(r.Intn(2) == 0)
			}
		}
		rows[i] = row
	}
	return schema, rows
}

// TestColumnarDecodeMatchesRowDecode is the decode round-trip property: for
// random schemas and pages, the columnar view of DecodePageCols and its
// materialized rows agree exactly — same row count, and every datum
// identical (kind and payload) to its row counterpart and to the input.
func TestColumnarDecodeMatchesRowDecode(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		schema, rows := randSchemaRows(r)
		b := newPageBuilder()
		var inPage []types.Row
		for _, row := range rows {
			if !b.tryAppend(row) {
				break // page full: the prefix is the property's input
			}
			inPage = append(inPage, row)
		}
		page := b.finish()

		cb, err := DecodePageCols(page, schema.Len())
		if err != nil {
			t.Fatalf("trial %d: DecodePageCols: %v", trial, err)
		}
		rowDec := cb.Rows()
		if cb.Len() != len(rowDec) || len(rowDec) != len(inPage) {
			t.Fatalf("trial %d: row counts: cols=%d rows=%d in=%d", trial, cb.Len(), len(rowDec), len(inPage))
		}
		if cb.NumCols() != schema.Len() {
			t.Fatalf("trial %d: NumCols = %d, want %d", trial, cb.NumCols(), schema.Len())
		}
		for i := range rowDec {
			for c := 0; c < schema.Len(); c++ {
				want := rowDec[i][c]
				got := cb.Col(c).Datum(i)
				if got.K != want.K || !got.Equal(want) {
					t.Fatalf("trial %d: row %d col %d: columnar %v (%v), row %v (%v)",
						trial, i, c, got, got.K, want, want.K)
				}
			}
		}
		// And both agree with what was encoded.
		for i := range inPage {
			if !rowDec[i].Equal(inPage[i]) {
				t.Fatalf("trial %d: row %d: decode mismatch: %v vs %v", trial, i, rowDec[i], inPage[i])
			}
		}
		cb.Release()
	}
}

// TestFrameViewsShareOneDecode checks the per-frame columnar cache: the row
// view and the columnar view of a page come from one decode, the columnar
// view survives its frame's reference being dropped, and rows materialized
// from it remain valid after the batch is recycled.
func TestFrameViewsShareOneDecode(t *testing.T) {
	disk := NewMemDisk(DiskProfile{})
	cat := NewCatalog(disk, 8, true)
	tbl, err := cat.CreateTable("t", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tbl.File.Append(types.Row{types.NewInt(int64(i)), types.NewString("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}

	cb, err := tbl.File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := tbl.File.Page(0)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Len() != len(rows) {
		t.Fatalf("views disagree: cols=%d rows=%d", cb.Len(), len(rows))
	}
	for i, r := range rows {
		if !r.Equal(cb.Row(i)) {
			t.Fatalf("row %d: views disagree: %v vs %v", i, r, cb.Row(i))
		}
	}
	cb2, err := tbl.File.PageCols(0)
	if err != nil {
		t.Fatal(err)
	}
	if cb2 != cb {
		t.Fatal("two PageCols calls returned different batches for one residency")
	}
	cb2.Release()
	saved := rows[10].Clone()
	cb.Release()
	// The frame still holds its own reference; rows stay valid regardless.
	if !rows[10].Equal(saved) {
		t.Fatal("row view corrupted after reader released its reference")
	}
}
