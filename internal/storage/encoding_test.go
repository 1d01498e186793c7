package storage

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func randRow(r *rand.Rand, ncols int) types.Row {
	row := make(types.Row, ncols)
	for i := range row {
		switch r.Intn(6) {
		case 0:
			row[i] = types.Null
		case 1:
			row[i] = types.NewInt(r.Int63() - r.Int63())
		case 2:
			row[i] = types.NewFloat(r.NormFloat64() * 1e6)
		case 3:
			b := make([]byte, r.Intn(40))
			for j := range b {
				b[j] = byte(r.Intn(256))
			}
			row[i] = types.NewString(string(b))
		case 4:
			row[i] = types.NewDate(r.Int63n(30000))
		default:
			row[i] = types.NewBool(r.Intn(2) == 0)
		}
	}
	return row
}

type rowGen struct{ R types.Row }

func (rowGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(rowGen{R: randRow(r, 1+r.Intn(8))})
}

// encodeDatums and decodeDatums run a row through the raw datum stream
// (the encRaw segment payload).
func encodeDatums(r types.Row) []byte {
	var buf []byte
	for _, d := range r {
		buf = appendDatum(buf, d)
	}
	return buf
}

func decodeDatums(data []byte, ncols int) (types.Row, []byte, error) {
	r := make(types.Row, ncols)
	for i := range r {
		var err error
		if r[i], data, err = decodeDatum(data, i); err != nil {
			return nil, nil, err
		}
	}
	return r, data, nil
}

func TestEncodeDecodeRowRoundTrip(t *testing.T) {
	f := func(g rowGen) bool {
		buf := encodeDatums(g.R)
		size := 0
		for _, d := range g.R {
			size += datumEncSize(d)
		}
		if len(buf) != size {
			return false
		}
		got, rest, err := decodeDatums(buf, len(g.R))
		if err != nil || len(rest) != 0 {
			return false
		}
		return reflect.DeepEqual(got, g.R)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRowTruncated(t *testing.T) {
	row := types.Row{types.NewString("hello"), types.NewInt(42)}
	buf := encodeDatums(row)
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := decodeDatums(buf[:cut], 2); err == nil {
			t.Errorf("decode of %d/%d bytes must fail", cut, len(buf))
		}
	}
}

func TestDecodeRowBadKindTag(t *testing.T) {
	if _, _, err := decodeDatum([]byte{0xEE}, 0); err == nil {
		t.Error("unknown kind tag must fail")
	}
}

func TestPageBuilderPacksAndDecodes(t *testing.T) {
	b := newPageBuilder()
	var want []types.Row
	r := rand.New(rand.NewSource(1))
	for {
		row := randRow(r, 4)
		if !b.tryAppend(row) {
			break
		}
		want = append(want, row)
	}
	if len(want) == 0 {
		t.Fatal("no rows fit in a page")
	}
	page := b.finish()
	if len(page) != PageSize {
		t.Fatalf("page size = %d", len(page))
	}
	cb, err := DecodePageCols(page, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := cb.Rows()
	cb.Release()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %d rows, want %d (or content mismatch)", len(got), len(want))
	}
	if !b.empty() {
		t.Error("builder must be empty after finish")
	}
}

func TestDecodePageEmpty(t *testing.T) {
	b := newPageBuilder()
	page := b.finish()
	cb, err := DecodePageCols(page, 3)
	if err != nil || cb.Len() != 0 {
		t.Fatalf("empty page: err=%v", err)
	}
	cb.Release()
	if _, err := DecodePageCols([]byte{1}, 3); err == nil {
		t.Error("short page must fail")
	}
}
