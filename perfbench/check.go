package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/ssb"
	"repro/internal/storage"
	"repro/internal/types"
)

// refMax caps the instances given a reference answer. Pools above it are
// checked against a seeded subset; every other answer is still checked
// against the first answer the run saw for the same instance.
const refMax = 512

// digest is an order-insensitive hash of a result's exact rows: the sum of a
// strong 64-bit hash of every row, folded with the row count. Every
// aggregate in these workloads sums an integer column; the float64 sum is
// exact at this scale (far below 2^53), so equal answers have equal rows bit
// for bit whatever order the rows were summed in.
func digest(rows []types.Row) uint64 {
	var sum uint64
	for _, row := range rows {
		sum += rowHash(row)
	}
	return mix64(sum + uint64(len(rows))*0x9e3779b97f4a7c15)
}

func rowHash(row types.Row) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	word := func(v uint64) {
		h = (h ^ v) * 1099511628211
	}
	for _, d := range row {
		word(uint64(d.K))
		word(uint64(d.I))
		word(math.Float64bits(d.F))
		word(uint64(len(d.S)))
		for i := 0; i < len(d.S); i++ {
			word(uint64(d.S[i]))
		}
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer; it spreads FNV's weak high bits so a
// sum of row hashes cannot cancel by accident.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// reference holds the expected digest of the checked instances.
type reference struct {
	want []uint64
	have []bool
}

// buildReference answers the workload's instances on a memory-resident twin
// generated from the same seed, with sharing off: a default engine (no SP,
// no result cache, no CJOIN) running the query-centric plans. Neither the
// shared paths nor the disk and eviction paths under test produce it.
func buildReference(ctx context.Context, w workload, seed int64) (*reference, error) {
	cat := storage.NewCatalog(storage.NewMemDisk(storage.DiskProfile{}), memFrames(), true)
	defer cat.Disk().Close()
	db, err := ssb.GenerateOpts(cat, scaleFactor, seed, ssb.GenOptions{DateClustered: w.clustered})
	if err != nil {
		return nil, fmt.Errorf("reference: generate ssb: %w", err)
	}
	m := w.mix(db, seed)
	eng := engine.New(cat, engine.Config{})
	ref := &reference{want: make([]uint64, len(m.insts)), have: make([]bool, len(m.insts))}
	cover := rand.New(rand.NewSource(seed)).Perm(len(m.insts))
	if len(cover) > refMax {
		cover = cover[:refMax]
	}
	var next atomic.Int64
	var first atomic.Value
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(cover) || first.Load() != nil {
					return
				}
				i := cover[k]
				res, err := eng.Execute(ctx, m.insts[i].Plan(false))
				if err != nil {
					first.CompareAndSwap(nil, fmt.Errorf("reference: %s: %w", m.insts[i].Name, err))
					return
				}
				ref.want[i], ref.have[i] = digest(res.Rows), true
			}
		}()
	}
	wg.Wait()
	if err, ok := first.Load().(error); ok {
		return nil, err
	}
	return ref, nil
}

// checker compares every answer with the reference, and every repeat of an
// instance with the first answer the run saw for it.
type checker struct {
	ref   *reference
	names func(i int) string

	mu   sync.Mutex
	seen map[int]uint64

	checked    atomic.Int64 // answers compared with a reference digest
	mismatches atomic.Int64
}

func newChecker(ref *reference, names func(i int) string) *checker {
	return &checker{ref: ref, names: names, seen: make(map[int]uint64)}
}

// check reports whether rows are the right answer for instance i, and prints
// the first few wrong ones.
func (c *checker) check(i int, rows []types.Row) bool {
	got := digest(rows)
	if c.ref.have[i] {
		c.checked.Add(1)
		if got != c.ref.want[i] {
			c.mismatch(i, "reference", c.ref.want[i], got, len(rows))
			return false
		}
	}
	c.mu.Lock()
	first, ok := c.seen[i]
	if !ok {
		c.seen[i] = got
	}
	c.mu.Unlock()
	if ok && first != got {
		c.mismatch(i, "earlier answer", first, got, len(rows))
		return false
	}
	return true
}

func (c *checker) mismatch(i int, against string, want, got uint64, nrows int) {
	if c.mismatches.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "WRONG ANSWER %s: digest %016x (%d rows) differs from the %s %016x\n",
			c.names(i), got, nrows, against, want)
	}
}
