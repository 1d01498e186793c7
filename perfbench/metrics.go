package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/cjoin"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/storage"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// A dist is a sorted sample of one timing, in milliseconds.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// at returns the nearest-rank q-quantile and the number of samples ranked
// above it.
func (d dist) at(q float64) (v float64, beyond int) {
	if len(d) == 0 {
		return 0, 0
	}
	k := int(math.Ceil(q*float64(len(d)))) - 1
	k = max(0, min(k, len(d)-1))
	return d[k], len(d) - 1 - k
}

// tail returns the highest percentile, at most q, among q and the usual
// steps p99, p95, p90, p75 and p50, that has at least minBeyond samples
// above it, with its value. When not even the median qualifies, it returns
// the median.
func (d dist) tail(q float64) (pq, v float64) {
	for _, c := range []float64{q, 0.99, 0.95, 0.9, 0.75} {
		if c > q {
			continue
		}
		if v, beyond := d.at(c); beyond >= minBeyond {
			return c, v
		}
	}
	v, _ = d.at(0.5)
	return 0.5, v
}

// A metric as the driver reads it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics of the result line.
type report struct {
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

// add records a metric and prints it on its own line.
func (r *report) add(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("%-36s %14.4f %-6s %s\n", name, v, unit, note)
}

// pct adds the q-quantile of xs, or the highest lower percentile the sample
// supports, and says which one it is and from how many samples.
func (r *report) pct(name string, xs []float64, q float64) {
	d := newDist(xs)
	pq, v := d.tail(q)
	note := fmt.Sprintf("(p%g of n=%d)", pq*100, len(d))
	switch {
	case len(d) == 0:
		note = "(no samples)"
	case pq != q:
		note = fmt.Sprintf("(p%g of n=%d; too few samples for p%g)", pq*100, len(d), q*100)
	}
	r.add(name, v, "ms", note)
}

// printJSON prints the result line the driver reads.
func (r *report) printJSON(correct bool, attempted, failed int64) error {
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// snapshot is every counter the layers expose, plus the process's own.
type snapshot struct {
	at      time.Time
	eng     engine.EngineStats
	cj      cjoin.Stats
	pool    storage.PoolStats
	dec     storage.DecodeStats
	disk    storage.DiskStats
	gw      service.Stats
	cpu     time.Duration // user + system CPU of the process
	gcCPU   float64       // seconds of CPU spent on GC
	mallocs uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readRuntime() (mallocs uint64, gcCPU float64, heap uint64) {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // reported as zero utilisation; never happens on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s *system) snapshot() snapshot {
	sn := snapshot{
		at:   time.Now(),
		eng:  s.eng.Stats(), // read directly: a wrapped executor hides it from the gateway
		cj:   s.op.Stats(),
		pool: s.cat.Pool().Stats(),
		dec:  s.cat.Pool().DecodeStats(),
		disk: s.mem.Stats(),
		cpu:  processCPU(),
	}
	if s.gw != nil {
		sn.gw = s.gw.Stats()
	}
	sn.mallocs, sn.gcCPU, _ = readRuntime()
	return sn
}

// heapPeak samples the live heap every 10ms until stop is closed, then
// sends the highest reading in bytes.
func heapPeak(stop <-chan struct{}, peak chan<- uint64) {
	var hi uint64
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		_, _, heap := readRuntime()
		hi = max(hi, heap)
		select {
		case <-stop:
			peak <- hi
			return
		case <-tick.C:
		}
	}
}

func stageBusy(st engine.EngineStats, k plan.Kind) time.Duration {
	for _, s := range st.Stages {
		if s.Kind == k {
			return s.Busy
		}
	}
	return 0
}

func spAttached(st engine.EngineStats) int64 {
	var n int64
	for _, s := range st.Stages {
		n += s.SPAttached
	}
	return n
}

// liveHeapMB forces two collections (the second clears what sync.Pools
// kept) and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	_, _, heap := readRuntime()
	return float64(heap) / (1 << 20)
}
