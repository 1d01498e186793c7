package bitvec

import (
	"math/rand"
	"testing"
)

// randBits builds a Bits and its word-slice twin with the same random
// contents.
func randBits(r *rand.Rand, nwords int) (*Bits, []uint64) {
	w := make([]uint64, nwords)
	for i := range w {
		w[i] = r.Uint64()
	}
	b := New(nwords * 64)
	copy(b.words, w)
	return b, w
}

// TestWordKernelsMatchBits checks every word kernel against the Bits method
// it replaces, across mismatched operand lengths (shorter operands are
// zero-extended in both implementations).
func TestWordKernelsMatchBits(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nd := 1 + r.Intn(4)
		ne := r.Intn(5) // may be shorter or longer than nd
		nm := r.Intn(5)

		db, dw := randBits(r, nd)
		eb, ew := randBits(r, ne)
		mb, mw := randBits(r, nm)

		// AndMaskedWords vs Bits.AndMasked.
		gotAM := append([]uint64(nil), dw...)
		AndMaskedWords(gotAM, ew, mw)
		wantAM := db.Clone()
		wantAM.AndMasked(eb, mb)
		for i := range gotAM {
			if gotAM[i] != wantAM.words[i] {
				t.Fatalf("trial %d: AndMaskedWords[%d] = %#x, want %#x", trial, i, gotAM[i], wantAM.words[i])
			}
		}

		// AndNotWords vs Bits.AndNot.
		gotAN := append([]uint64(nil), dw...)
		AndNotWords(gotAN, mw)
		wantAN := db.Clone()
		wantAN.AndNot(mb)
		for i := range gotAN {
			if gotAN[i] != wantAN.words[i] {
				t.Fatalf("trial %d: AndNotWords[%d] = %#x, want %#x", trial, i, gotAN[i], wantAN.words[i])
			}
		}

		// IntersectsWords vs AND-then-Any on Bits.
		wantX := db.Clone()
		wantX.And(mb)
		if got := IntersectsWords(dw, mw); got != wantX.Any() {
			t.Fatalf("trial %d: IntersectsWords = %v, want %v", trial, got, wantX.Any())
		}

		// AnyWords / CountWords vs Bits.
		if AnyWords(dw) != db.Any() {
			t.Fatalf("trial %d: AnyWords mismatch", trial)
		}
		if CountWords(dw) != db.Count() {
			t.Fatalf("trial %d: CountWords mismatch", trial)
		}

		// ForEachWords vs Bits.ForEach.
		var gotIdx, wantIdx []int
		ForEachWords(dw, func(i int) { gotIdx = append(gotIdx, i) })
		db.ForEach(func(i int) { wantIdx = append(wantIdx, i) })
		if len(gotIdx) != len(wantIdx) {
			t.Fatalf("trial %d: ForEachWords yielded %d bits, want %d", trial, len(gotIdx), len(wantIdx))
		}
		for i := range gotIdx {
			if gotIdx[i] != wantIdx[i] {
				t.Fatalf("trial %d: ForEachWords[%d] = %d, want %d", trial, i, gotIdx[i], wantIdx[i])
			}
		}
	}
}

func TestSetClearGetWord(t *testing.T) {
	var w []uint64
	w = SetWord(w, 0)
	w = SetWord(w, 63)
	w = SetWord(w, 200) // grows to 4 words
	if len(w) != 4 {
		t.Fatalf("len = %d, want 4", len(w))
	}
	for _, i := range []int{0, 63, 200} {
		if !GetWord(w, i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if GetWord(w, 1) || GetWord(w, 199) || GetWord(w, 500) {
		t.Error("unexpected bit set")
	}
	ClearWord(w, 63)
	if GetWord(w, 63) {
		t.Error("bit 63 still set after ClearWord")
	}
	ClearWord(w, 10000) // beyond capacity: no-op, no panic
}

// TestWordKernelsZeroAlloc locks in the allocation-free contract of the
// steady-state kernels.
func TestWordKernelsZeroAlloc(t *testing.T) {
	dst := make([]uint64, 8)
	entry := make([]uint64, 8)
	mask := make([]uint64, 8)
	for i := range dst {
		dst[i] = ^uint64(0)
		entry[i] = uint64(i) * 0x9e3779b97f4a7c15
		mask[i] = ^uint64(0) >> uint(i)
	}
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		AndMaskedWords(dst, entry, mask)
		AndNotWords(dst, mask)
		if AnyWords(dst) {
			sink += CountWords(dst)
		}
		ForEachWords(entry, func(i int) { sink += i })
	})
	if allocs != 0 {
		t.Errorf("word kernels allocate %v objects per run, want 0", allocs)
	}
	_ = sink
}
