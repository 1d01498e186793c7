package storage

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/types"
)

// faultCatalog builds a catalog over a FaultDisk (disarmed) holding one
// multi-page table, with a pool small enough that pages keep reaching the
// disk.
func faultCatalog(t *testing.T, poolPages, rows int) (*Catalog, *FaultDisk, *Table) {
	t.Helper()
	fd := NewFaultDisk(NewMemDisk(DiskProfile{}))
	c := NewCatalog(fd, poolPages, true)
	tbl, err := c.CreateTable("orders", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "pad", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 120)
	for i := 0; i < rows; i++ {
		if err := tbl.File.Append(types.Row{types.NewInt(int64(i)), types.NewString(pad + strconv.Itoa(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	if tbl.File.NumPages() < 3 {
		t.Fatalf("fixture too small: %d pages", tbl.File.NumPages())
	}
	return c, fd, tbl
}

func TestFetchRetriesTransientFaultThenSucceeds(t *testing.T) {
	c, fd, tbl := faultCatalog(t, 4, 3000)
	c.Pool().SetRetryPolicy(3, time.Microsecond)

	// A burst of 2 transient failures is inside the 3-retry budget: the
	// fetch succeeds and nothing is quarantined.
	fd.FailNextReads(2)
	fr, err := c.Pool().Fetch(tbl.File.ID(), 0)
	if err != nil {
		t.Fatalf("fetch through transient burst: %v", err)
	}
	c.Pool().Unpin(fr)
	s := c.Pool().DecodeStats()
	if s.Retries != 2 {
		t.Errorf("Retries = %d, want 2", s.Retries)
	}
	if s.Quarantined != 0 {
		t.Errorf("Quarantined = %d, want 0", s.Quarantined)
	}
	if fd.Injected() != 2 {
		t.Errorf("Injected = %d, want 2", fd.Injected())
	}
}

func TestExhaustedRetriesQuarantinePage(t *testing.T) {
	c, fd, tbl := faultCatalog(t, 4, 3000)
	c.Pool().SetRetryPolicy(2, time.Microsecond)

	fd.FailReadsAfter(0)
	_, err := c.Pool().Fetch(tbl.File.ID(), 0)
	var pe *PageError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PageError", err)
	}
	if pe.Table != "orders" || pe.Page != 0 {
		t.Errorf("PageError = %+v, want table \"orders\" page 0", pe)
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("PageError does not unwrap to the injected cause: %v", err)
	}
	s := c.Pool().DecodeStats()
	if s.Retries != 2 || s.Quarantined != 1 {
		t.Errorf("Retries=%d Quarantined=%d, want 2/1", s.Retries, s.Quarantined)
	}

	// The quarantine is sticky and fails fast: the second fetch returns the
	// same canonical error without touching the disk.
	injBefore := fd.Injected()
	_, err2 := c.Pool().Fetch(tbl.File.ID(), 0)
	if err2 != err {
		t.Errorf("second fetch error %v is not the canonical quarantine error %v", err2, err)
	}
	if fd.Injected() != injBefore {
		t.Error("quarantined fetch reached the disk")
	}

	// Blast radius: after the disk heals, other pages of the same file load
	// fine while page 0 stays quarantined.
	fd.Heal()
	fr, err := c.Pool().Fetch(tbl.File.ID(), 1)
	if err != nil {
		t.Fatalf("healthy sibling page: %v", err)
	}
	c.Pool().Unpin(fr)
	if _, err := c.Pool().Fetch(tbl.File.ID(), 0); err == nil {
		t.Fatal("quarantine lifted without ClearQuarantine")
	}

	// ClearQuarantine is the repair hook: page 0 loads again.
	c.Pool().ClearQuarantine()
	fr, err = c.Pool().Fetch(tbl.File.ID(), 0)
	if err != nil {
		t.Fatalf("after ClearQuarantine: %v", err)
	}
	c.Pool().Unpin(fr)
}

func TestPermanentFaultSkipsRetries(t *testing.T) {
	c, fd, tbl := faultCatalog(t, 4, 3000)
	// A generous budget that must not be used: poisoned pages are classified
	// permanent, so the fetch quarantines without burning a single retry.
	c.Pool().SetRetryPolicy(5, time.Millisecond)

	fd.PoisonPage(tbl.File.ID(), 1)
	start := time.Now()
	_, err := c.Pool().Fetch(tbl.File.ID(), 1)
	if err == nil {
		t.Fatal("poisoned fetch succeeded")
	}
	s := c.Pool().DecodeStats()
	if s.Retries != 0 {
		t.Errorf("Retries = %d, want 0 for a permanent fault", s.Retries)
	}
	if s.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", s.Quarantined)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("permanent fault took %v — backoff was paid anyway", elapsed)
	}
}

func TestCorruptPageQuarantinesPermanently(t *testing.T) {
	c, fd, tbl := faultCatalog(t, 4, 3000)

	// The read "succeeds" but the bytes are rotten: the decode fails, and the
	// page is quarantined exactly like an unreadable one.
	fd.CorruptReadsAfter(0)
	_, err := tbl.File.PageCols(0)
	var pe *PageError
	if !errors.As(err, &pe) {
		t.Fatalf("corrupt decode err = %v, want *PageError", err)
	}
	if IsTransient(err) {
		t.Error("corrupt-page error classified transient")
	}
	if fd.Corrupted() == 0 {
		t.Fatal("corruption never fired")
	}
	if s := c.Pool().DecodeStats(); s.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", s.Quarantined)
	}

	// Healing the disk is not enough — the quarantine is sticky until the
	// operator clears it, at which point the (now clean) bytes decode fine.
	fd.Heal()
	if _, err := tbl.File.PageCols(0); err == nil {
		t.Fatal("quarantine lifted by Heal alone")
	}
	c.Pool().ClearQuarantine()
	cb, err := tbl.File.PageCols(0)
	if err != nil {
		t.Fatalf("after repair: %v", err)
	}
	if cb.Len() == 0 {
		t.Error("repaired page decoded empty")
	}
	cb.Release()
}

// TestWriteFaultFailsFlushSticky checks that a failed page flush is never
// forgotten: the rows of the failed page are gone, so every later Append
// and Seal — even after the disk heals — returns the write error instead of
// sealing a file that silently lacks them.
func TestWriteFaultFailsFlushSticky(t *testing.T) {
	fd := NewFaultDisk(NewMemDisk(DiskProfile{}))
	c := NewCatalog(fd, 4, true)
	tbl, err := c.CreateTable("t", types.NewSchema(types.Column{Name: "v", Kind: types.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	fd.FailWritesAfter(0)
	var appendErr error
	for i := 0; appendErr == nil && i < 100000; i++ {
		appendErr = tbl.File.Append(types.Row{types.NewInt(int64(i))})
	}
	if !errors.Is(appendErr, ErrInjected) {
		t.Fatalf("Append err = %v, want ErrInjected", appendErr)
	}
	if fd.InjectedWrites() != 1 {
		t.Errorf("InjectedWrites = %d, want 1", fd.InjectedWrites())
	}

	fd.Heal()
	if err := tbl.File.Append(types.Row{types.NewInt(0)}); !errors.Is(err, ErrInjected) {
		t.Errorf("Append after heal: err = %v, want the sticky ErrInjected", err)
	}
	if err := tbl.File.Seal(); !errors.Is(err, ErrInjected) {
		t.Errorf("Seal after heal: err = %v, want the sticky ErrInjected", err)
	}
	if fd.InjectedWrites() != 1 {
		t.Errorf("InjectedWrites = %d after heal, want 1 (no further writes)", fd.InjectedWrites())
	}
	if n := tbl.File.NumPages(); n != 0 {
		t.Errorf("NumPages = %d, want 0", n)
	}
}

func TestFaultTargetingIsPerFile(t *testing.T) {
	fd := NewFaultDisk(NewMemDisk(DiskProfile{}))
	c := NewCatalog(fd, 8, true)
	mk := func(name string) *Table {
		tbl, err := c.CreateTable(name, types.NewSchema(
			types.Column{Name: "v", Kind: types.KindInt}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := tbl.File.Append(types.Row{types.NewInt(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.File.Seal(); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	t1, t2 := mk("victim"), mk("bystander")
	c.Pool().SetRetryPolicy(0, 0)

	fd.Target(t1.File.ID())
	fd.FailReadsAfter(0)
	if _, err := t1.File.PageCols(0); !errors.Is(err, ErrInjected) {
		t.Fatalf("targeted file: err = %v, want injected", err)
	}
	cb, err := t2.File.PageCols(0)
	if err != nil {
		t.Fatalf("untargeted file failed: %v", err)
	}
	cb.Release()
	if fd.Injected() != 1 {
		t.Errorf("Injected = %d, want 1 (victim only)", fd.Injected())
	}
}

// TestFetchRetryZeroAlloc pins the fault-free fetch path at zero heap
// allocations: the retry/quarantine machinery must cost nothing when
// disarmed.
func TestFetchRetryZeroAlloc(t *testing.T) {
	c, _, tbl := faultCatalog(t, 8, 1000)
	pool, f := c.Pool(), tbl.File.ID()
	// Warm the page in, then measure the hit path.
	fr, err := pool.Fetch(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(fr)
	allocs := testing.AllocsPerRun(200, func() {
		fr, err := pool.Fetch(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(fr)
	})
	if allocs != 0 {
		t.Errorf("fault-free Fetch allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkFetchRetryDisarmed is the CI-gated benchmark: a pool hit with the
// retry and quarantine machinery present but disarmed must stay at 0
// allocs/op.
func BenchmarkFetchRetryDisarmed(b *testing.B) {
	fd := NewFaultDisk(NewMemDisk(DiskProfile{}))
	c := NewCatalog(fd, 8, true)
	tbl, err := c.CreateTable("bench", types.NewSchema(
		types.Column{Name: "v", Kind: types.KindInt}))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tbl.File.Append(types.Row{types.NewInt(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		b.Fatal(err)
	}
	pool, f := c.Pool(), tbl.File.ID()
	fr, err := pool.Fetch(f, 0)
	if err != nil {
		b.Fatal(err)
	}
	pool.Unpin(fr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := pool.Fetch(f, 0)
		if err != nil {
			b.Fatal(err)
		}
		pool.Unpin(fr)
	}
}
