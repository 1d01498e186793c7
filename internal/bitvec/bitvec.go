// Package bitvec implements the query-set bitmaps at the heart of the Global
// Query Plan (Figure 1b of the paper): every tuple flowing through a shared
// operator carries a bitmap whose bit q records whether the tuple is still
// relevant to query q. Shared hash-joins AND the bitmaps of the joined
// tuples; the distributor routes a tuple to every query whose bit survived.
package bitvec

import (
	"math/bits"
	"strings"
)

const wordBits = 64

// Bits is a growable bitset. The zero value is an empty bitset ready to use.
type Bits struct {
	words []uint64
}

// New returns a bitset pre-sized to hold at least n bits.
func New(n int) *Bits {
	return &Bits{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewFromWords wraps the given words (used by tests and pooling).
func NewFromWords(w []uint64) *Bits { return &Bits{words: w} }

// Len returns the bit capacity (a multiple of 64).
func (b *Bits) Len() int { return len(b.words) * wordBits }

// grow ensures bit i is addressable.
func (b *Bits) grow(i int) {
	need := i/wordBits + 1
	if need <= len(b.words) {
		return
	}
	nw := make([]uint64, need)
	copy(nw, b.words)
	b.words = nw
}

// Set sets bit i, growing as needed.
func (b *Bits) Set(i int) {
	b.grow(i)
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i (no-op if beyond capacity).
func (b *Bits) Clear(i int) {
	if i/wordBits < len(b.words) {
		b.words[i/wordBits] &^= 1 << uint(i%wordBits)
	}
}

// Get reports bit i.
func (b *Bits) Get(i int) bool {
	w := i / wordBits
	return w < len(b.words) && b.words[w]&(1<<uint(i%wordBits)) != 0
}

// Reset clears every bit while retaining capacity.
func (b *Bits) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Any reports whether any bit is set. This is the hot "drop dead tuples"
// check in the CJOIN pipeline.
func (b *Bits) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (b *Bits) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// And replaces b with b AND o, treating missing words in o as zero.
func (b *Bits) And(o *Bits) {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] &= o.words[i]
		} else {
			b.words[i] = 0
		}
	}
}

// AndMasked replaces b with b AND (o OR NOT mask): bits inside mask are
// filtered through o, bits outside mask pass through unchanged. This is the
// core shared hash-join step — mask is the set of queries that reference
// this dimension, o is the dimension entry's bitmap, and queries that do not
// join this dimension must keep their bits.
func (b *Bits) AndMasked(o, mask *Bits) {
	for i := range b.words {
		var ow, mw uint64
		if i < len(o.words) {
			ow = o.words[i]
		}
		if i < len(mask.words) {
			mw = mask.words[i]
		}
		b.words[i] &= ow | ^mw
	}
}

// AndNot replaces b with b AND NOT o (used when a probe misses: the queries
// in o — the stage mask — lose the tuple, the rest keep it).
func (b *Bits) AndNot(o *Bits) {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] &^= o.words[i]
		}
	}
}

// Or replaces b with b OR o, growing b as needed.
func (b *Bits) Or(o *Bits) {
	if len(o.words) > len(b.words) {
		b.grow(len(o.words)*wordBits - 1)
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// CopyFrom makes b an exact copy of o, reusing b's storage when possible.
func (b *Bits) CopyFrom(o *Bits) {
	if cap(b.words) < len(o.words) {
		b.words = make([]uint64, len(o.words))
	}
	b.words = b.words[:len(o.words)]
	copy(b.words, o.words)
}

// Clone returns an independent copy.
func (b *Bits) Clone() *Bits {
	c := &Bits{words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// Equal reports whether two bitsets have the same set bits (capacities may
// differ).
func (b *Bits) Equal(o *Bits) bool {
	n := len(b.words)
	if len(o.words) > n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		var bw, ow uint64
		if i < len(b.words) {
			bw = b.words[i]
		}
		if i < len(o.words) {
			ow = o.words[i]
		}
		if bw != ow {
			return false
		}
	}
	return true
}

// ForEach invokes fn with the index of every set bit, in ascending order.
// The distributor uses this to fan joined tuples out to queries.
func (b *Bits) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(wi*wordBits + tz)
			w &= w - 1
		}
	}
}

// ---------------------------------------------------------------------------
// Word-slice kernels
//
// The CJOIN hot path stores tuple bitmaps inline in a per-page []uint64 arena
// (tuple i owns words [i*stride, (i+1)*stride)) instead of one heap-allocated
// Bits per tuple. These kernels operate directly on such word slices so the
// steady-state probe path performs zero allocations. They mirror the Bits
// methods above: words missing from the shorter operand are treated as zero.

// SetWord sets bit i in w, growing w as needed, and returns the (possibly
// reallocated) slice.
func SetWord(w []uint64, i int) []uint64 {
	for i/wordBits >= len(w) {
		w = append(w, 0)
	}
	w[i/wordBits] |= 1 << uint(i%wordBits)
	return w
}

// ClearWord clears bit i in w (no-op beyond capacity).
func ClearWord(w []uint64, i int) {
	if i/wordBits < len(w) {
		w[i/wordBits] &^= 1 << uint(i%wordBits)
	}
}

// GetWord reports bit i of w.
func GetWord(w []uint64, i int) bool {
	wi := i / wordBits
	return wi < len(w) && w[wi]&(1<<uint(i%wordBits)) != 0
}

// AnyWords reports whether any bit of w is set — the "is this tuple still
// alive" check after each shared join.
func AnyWords(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return true
		}
	}
	return false
}

// IntersectsWords reports whether a and b share a set bit (words missing
// from the shorter operand are zero) — the CJOIN probe's "does any query
// still carried by this tuple reference the dimension" check.
func IntersectsWords(a, b []uint64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// AndMaskedWords computes dst &= entry | ^mask word-wise: bits inside mask
// are filtered through entry, bits outside mask pass through unchanged. This
// is the shared hash-join hit step on inline bitmaps (see Bits.AndMasked).
func AndMaskedWords(dst, entry, mask []uint64) {
	for i := range dst {
		var ew, mw uint64
		if i < len(entry) {
			ew = entry[i]
		}
		if i < len(mask) {
			mw = mask[i]
		}
		dst[i] &= ew | ^mw
	}
}

// AndNotWords computes dst &^= mask word-wise — the shared hash-join miss
// step: every query referencing the dimension loses the tuple.
func AndNotWords(dst, mask []uint64) {
	n := len(dst)
	if len(mask) < n {
		n = len(mask)
	}
	for i := 0; i < n; i++ {
		dst[i] &^= mask[i]
	}
}

// ForEachWords invokes fn with the index of every set bit of w, ascending.
func ForEachWords(w []uint64, fn func(i int)) {
	for wi, x := range w {
		for x != 0 {
			tz := bits.TrailingZeros64(x)
			fn(wi*wordBits + tz)
			x &= x - 1
		}
	}
}

// CountWords returns the number of set bits of w.
func CountWords(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// NextSet returns the index of the first set bit at or after i, or -1.
func (b *Bits) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	wi := i / wordBits
	if wi >= len(b.words) {
		return -1
	}
	w := b.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// String renders the set bits, e.g. "{0,3,17}".
func (b *Bits) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		sb.WriteString(itoa(i))
	})
	sb.WriteByte('}')
	return sb.String()
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
