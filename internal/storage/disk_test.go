package storage

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/types"
)

func testDiskRoundTrip(t *testing.T, d Disk) {
	t.Helper()
	f, err := d.CreateFile("t1")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := d.NumPages(f); n != 0 {
		t.Fatalf("fresh file has %d pages", n)
	}
	p0 := bytes.Repeat([]byte{0xAA}, PageSize)
	p1 := bytes.Repeat([]byte{0xBB}, PageSize)
	if err := d.WritePage(f, 0, p0); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(f, 1, p1); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.NumPages(f); n != 2 {
		t.Fatalf("NumPages = %d, want 2", n)
	}
	buf := make([]byte, PageSize)
	if err := d.ReadPage(f, 1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, p1) {
		t.Error("page 1 contents mismatch")
	}
	// Overwrite in place.
	if err := d.WritePage(f, 0, p1); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, p1) {
		t.Error("overwritten page 0 mismatch")
	}
	// Error paths.
	if err := d.ReadPage(f, 5, buf); err == nil {
		t.Error("read past end must fail")
	}
	if err := d.WritePage(f, 7, p0); err == nil {
		t.Error("write past end+1 must fail")
	}
	if err := d.WritePage(f, 0, []byte{1, 2, 3}); err == nil {
		t.Error("short write must fail")
	}
	if err := d.ReadPage(FileID(99), 0, buf); err == nil {
		t.Error("unknown file must fail")
	}
	st := d.Stats()
	if st.PageReads < 2 || st.PageWrites < 3 {
		t.Errorf("stats = %+v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemDiskRoundTrip(t *testing.T) {
	testDiskRoundTrip(t, NewMemDisk(DiskProfile{}))
}

func TestFileDiskRoundTrip(t *testing.T) {
	d, err := NewFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testDiskRoundTrip(t, d)
}

func TestMemDiskLatencyIsCharged(t *testing.T) {
	d := NewMemDisk(DiskProfile{ReadLatency: 2 * time.Millisecond, MaxConcurrent: 1})
	f, _ := d.CreateFile("t")
	page := make([]byte, PageSize)
	if err := d.WritePage(f, 0, page); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const reads = 5
	for i := 0; i < reads; i++ {
		if err := d.ReadPage(f, 0, page); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el < reads*2*time.Millisecond {
		t.Errorf("5 serialized 2ms reads took %v, want >= 10ms", el)
	}
}

func TestMemDiskBandwidthSerializes(t *testing.T) {
	// With MaxConcurrent=1 and 2ms latency, 4 concurrent reads take >= 8ms.
	d := NewMemDisk(DiskProfile{ReadLatency: 2 * time.Millisecond, MaxConcurrent: 1})
	f, _ := d.CreateFile("t")
	if err := d.WritePage(f, 0, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			buf := make([]byte, PageSize)
			done <- d.ReadPage(f, 0, buf)
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el < 8*time.Millisecond {
		t.Errorf("4 bandwidth-limited reads took %v, want >= 8ms", el)
	}
}

// End-to-end FileDisk round trip: generate onto a real-file disk, read back
// through the buffer pool and circular scans.
func TestFileDiskEndToEnd(t *testing.T) {
	disk, err := NewFileDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	cat := NewCatalog(disk, 8, true)
	tbl, err := cat.CreateTable("t", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := tbl.File.Append(types.Row{types.NewInt(int64(i)), types.NewString("abcdefghij")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.File.Seal(); err != nil {
		t.Fatal(err)
	}
	cur := tbl.Attach()
	defer cur.Close()
	seen := collectScan(t, cur)
	if len(seen) != n {
		t.Fatalf("file-disk scan saw %d rows, want %d", len(seen), n)
	}
}
