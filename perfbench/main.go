// Command perfbench is the repository's benchmark. It generates one
// workload's database and queries from a seed, runs them against the engine
// in its shipped configuration, checks every answer against a reference
// computed with sharing off, and prints each metric by name with its unit.
// The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off. With -trace 1 the program wraps the Disk, StarRunner and Executor
// seams with timing decorators and prints the per-layer metrics instead.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload ssb-mix-mem --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package and passes its arguments through. Workloads:
// ssb-mix-mem and dated-disk-reuse (see README.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/service"
)

// setups is how many times a -trace 0 run builds the system; setup_s is the
// median.
const setups = 3

// parts is how many equal sub-windows the end-to-end rate and latency
// percentiles are computed over; each is reported as the median of its
// sub-window values, so a burst of noise from outside the process that hits
// one sub-window does not move it.
const parts = 5

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: ssb-mix-mem or dated-disk-reuse")
	seed := fs.Int64("seed", 1, "seed of the generated data and queries")
	secs := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 runs a traced window and prints per-layer metrics")
	spans := fs.String("spans", "", "directory to write the traced window's spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && *secs < 1 {
		err = fmt.Errorf("-seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	stamp(w, *seed, *secs, *trace)

	ctx := context.Background()
	dur := time.Duration(*secs) * time.Second
	var res *result
	if *trace == 1 {
		res, err = traced(ctx, w, *seed, dur, *spans)
	} else {
		res, err = plain(ctx, w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := res.rep.printJSON(res.wrong == 0, res.attempted, res.failed); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if res.wrong > 0 {
		return 1
	}
	return 0
}

// stamp prints what the numbers of this run depend on.
func stamp(w workload, seed int64, secs, trace int) {
	fmt.Printf("# perfbench commit=%s go=%s gomaxprocs=%d numcpu=%d workload=%s seed=%d seconds=%d trace=%d date=%s\n",
		commit(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), w.name, seed, secs, trace,
		time.Now().UTC().Format(time.RFC3339))
	fmt.Printf("# gateway latency limits: short_ms=%d long_ms=%d\n", shortLimit.Milliseconds(), longLimit.Milliseconds())
}

// commit names the source revision: from the build's VCS stamp, else from
// git, else "unknown" (a source tree that is not a git checkout).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// result is what a run prints as its last line.
type result struct {
	rep                      *report
	attempted, failed, wrong int64
}

// window is the outcome of one measured window.
type window struct {
	mu                   sync.Mutex
	start                time.Time
	elapsed              time.Duration
	done                 []time.Duration // completion time of each entry of lat, since start
	attempted, completed int64
	failed, shed, wrong  int64
	lat, short, long     []float64 // ms, right answers only; short and long by gateway class
	good                 int64     // right answers within their class's latency limit
	errorsShown          int
}

// record counts one query's outcome.
func (win *window) record(s *system, chk *checker, i int, res *engine.Result, err error, lat time.Duration) {
	right := err == nil && chk.check(i, res.Rows)
	isLong := s.gw != nil && s.long(i)
	latMs := ms(int64(lat))
	win.mu.Lock()
	defer win.mu.Unlock()
	win.attempted++
	switch {
	case err != nil:
		win.failed++
		if errors.Is(err, service.ErrOverloaded) || errors.Is(err, service.ErrWouldMiss) {
			win.shed++
		} else if win.errorsShown < 5 {
			win.errorsShown++
			fmt.Fprintf(os.Stderr, "query %s failed: %v\n", s.mix.insts[i].Name, err)
		}
	case !right:
		win.failed++
		win.wrong++
	default:
		win.completed++
		win.lat = append(win.lat, latMs)
		win.done = append(win.done, time.Since(win.start))
		if s.gw == nil {
			return
		}
		limit := shortLimit
		if isLong {
			limit = longLimit
			win.long = append(win.long, latMs)
		} else {
			win.short = append(win.short, latMs)
		}
		if lat <= limit {
			win.good++
		}
	}
}

// measure runs one window of the workload: a closed loop with inflight
// queries in flight.
func measure(ctx context.Context, s *system, chk *checker, dur time.Duration, seed int64) *window {
	win := &window{start: time.Now()}
	win.elapsed = closedLoop(inflight, dur, 0, seed, func(_ int, r *rand.Rand) {
		i := s.mix.draw(r)
		qctx := s.trace.withQuery(ctx)
		t0 := time.Now()
		res, err := s.query(qctx, i)
		win.record(s, chk, i, res, err, time.Since(t0))
	})
	return win
}

func (win *window) qps() float64 { return frac(float64(win.completed), win.elapsed.Seconds()) }

// split divides the right answers' latencies among parts equal sub-windows
// of dur by completion time (answers completing after dur fall in the last),
// and returns each sub-window's latencies and rate.
func (win *window) split(dur time.Duration) (lats [][]float64, rates []float64) {
	lats = make([][]float64, parts)
	for k, l := range win.lat {
		j := min(int(win.done[k]*parts/dur), parts-1)
		lats[j] = append(lats[j], l)
	}
	span := dur / parts
	for j := range lats {
		if j == parts-1 {
			span = max(win.elapsed-span*(parts-1), span)
		}
		rates = append(rates, float64(len(lats[j]))/span.Seconds())
	}
	return lats, rates
}

// endToEnd adds the bounded metrics of a window: the rate and latency
// percentiles, each the median of its sub-window values. The bounded tail is
// p90: on a shared 2-CPU VM the p99 of a closed loop spreads more than a
// quarter of its median seed to seed, beyond any bound the benchmark may
// set, so p99 is printed but not bounded.
func endToEnd(rep *report, win *window, dur time.Duration) {
	lats, rates := win.split(dur)
	rep.add("qps", median(rates), "1/s", fmt.Sprintf("(right answers per second; median of %d sub-windows: %.1f)", parts, rates))
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p90_ms", 0.9}} {
		// Use the highest percentile every sub-window supports.
		q, n := p.q, len(win.lat)
		for _, l := range lats {
			q2, _ := newDist(l).tail(q)
			q, n = min(q, q2), min(n, len(l))
		}
		vals := make([]float64, parts)
		for j, l := range lats {
			vals[j], _ = newDist(l).at(q)
		}
		rep.add(p.name, median(vals), "ms", fmt.Sprintf("(p%g, median of %d sub-windows of n>=%d: %.2f)", q*100, parts, n, vals))
	}
}

func (win *window) print(label string) {
	fmt.Printf("# %s: attempted=%d completed=%d failed=%d shed=%d wrong=%d elapsed=%s\n",
		label, win.attempted, win.completed, win.failed, win.shed, win.wrong, win.elapsed.Round(time.Millisecond))
}

// prepare builds and warms the system once per entry of times. Every build
// but the last is torn down; each entry of times receives the
// seconds one build and warm-up took.
func prepare(ctx context.Context, w workload, seed int64, tr *tracer, times []float64) (*system, error) {
	var s *system
	for k := range times {
		if s != nil {
			s.close()
		}
		d, err := timed(func() error {
			var err error
			if s, err = newSystem(w, seed, tr); err != nil {
				return err
			}
			return s.warm(ctx, seed)
		})
		if err != nil {
			if s != nil {
				s.close()
			}
			return nil, err
		}
		times[k] = d.Seconds()
	}
	return s, nil
}

// checkerFor builds the reference answers and the checker for s.
func checkerFor(ctx context.Context, s *system, seed int64) (*checker, time.Duration, error) {
	var ref *reference
	d, err := timed(func() error {
		var err error
		ref, err = buildReference(ctx, s.w, seed)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return newChecker(ref, func(i int) string { return s.mix.insts[i].Name }), d, nil
}

// timed runs f and returns how long it took.
func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

func median(xs []float64) float64 {
	v, _ := newDist(xs).at(0.5)
	return v
}

// plain is the -trace 0 run: the end-to-end metrics, tracing off.
func plain(ctx context.Context, w workload, seed int64, dur time.Duration) (*result, error) {
	times := make([]float64, setups)
	s, err := prepare(ctx, w, seed, nil, times)
	if err != nil {
		return nil, err
	}
	defer s.close()
	memMB := liveHeapMB()
	chk, refDur, err := checkerFor(ctx, s, seed)
	if err != nil {
		return nil, err
	}
	runtime.GC() // the reference twin is garbage now; do not bill its collection to the window
	win := measure(ctx, s, chk, dur, seed)
	win.print("window")

	rep := newReport()
	rep.add("setup_s", median(times), "s", fmt.Sprintf("(median of %d set-ups: %.3f)", len(times), times))
	rep.add("mem_setup_mb", memMB, "MB", "(live heap after set-up and a forced GC)")
	endToEnd(rep, win, dur)

	fmt.Println("# also end to end, not bounded by the benchmark:")
	info := newReport()
	info.pct("latency_p99_ms", win.lat, 0.99)
	info.add("failed_frac", frac(float64(win.failed), float64(win.attempted)), "frac", "(errors, sheds and wrong answers per attempt)")
	if s.gw != nil {
		gatewayMetrics(info, "", win)
	}
	info.add("bench.checked_frac", frac(float64(chk.checked.Load()), float64(win.completed)), "frac", "(answers compared with a reference)")
	info.add("bench.reference_s", refDur.Seconds(), "s", "")
	return &result{rep: rep, attempted: win.attempted, failed: win.failed, wrong: win.wrong}, nil
}

// gatewayMetrics adds the per-class figures of a window through the gateway.
func gatewayMetrics(rep *report, prefix string, win *window) {
	rep.pct(prefix+"short_p99_ms", win.short, 0.99)
	rep.pct(prefix+"long_p99_ms", win.long, 0.99)
	rep.add(prefix+"goodput_qps", frac(float64(win.good), win.elapsed.Seconds()), "1/s",
		fmt.Sprintf("(right answers within %s short / %s long)", shortLimit, longLimit))
	rep.add(prefix+"slo_miss_frac", frac(float64(win.attempted-win.good), float64(win.attempted)), "frac",
		"(arrivals failed, shed, wrong or over their limit)")
}

// traced is the -trace 1 run: an untraced window of half the length, then a
// traced one, from the same seed; per-layer metrics come from the traced
// window and from counter snapshots around it, and the difference between
// the two windows is the tracing overhead.
func traced(ctx context.Context, w workload, seed int64, dur time.Duration, spansDir string) (*result, error) {
	tr := newTracer()
	times := make([]float64, 1)
	s, err := prepare(ctx, w, seed, tr, times)
	if err != nil {
		return nil, err
	}
	defer s.close()
	chk, refDur, err := checkerFor(ctx, s, seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	base := measure(ctx, s, chk, dur/2, seed)
	base.print("untraced window")

	tr.on.Store(true)
	before := s.snapshot()
	stop, peak := make(chan struct{}), make(chan uint64)
	go heapPeak(stop, peak)
	win := measure(ctx, s, chk, dur, seed)
	after := s.snapshot()
	close(stop)
	heapMB := float64(<-peak) / (1 << 20)
	tr.on.Store(false)
	win.print("traced window")
	sum := tr.summarize()

	n := float64(win.completed)
	per := func(x float64) float64 { return frac(x, n) }
	wall := after.at.Sub(before.at)

	rep := newReport()
	fmt.Println("# service (zero where the gateway is bypassed)")
	rep.pct("service.wait_ms_p50", sum.waitMs, 0.5)
	rep.pct("service.wait_ms_p99", sum.waitMs, 0.99)
	arrived := float64(after.gw.Short.Arrived + after.gw.Long.Arrived - before.gw.Short.Arrived - before.gw.Long.Arrived)
	shed := float64(after.gw.Short.ShedOverload + after.gw.Long.ShedOverload + after.gw.Short.ShedWouldMiss + after.gw.Long.ShedWouldMiss -
		before.gw.Short.ShedOverload - before.gw.Long.ShedOverload - before.gw.Short.ShedWouldMiss - before.gw.Long.ShedWouldMiss)
	rep.add("service.shed_frac", frac(shed, arrived), "frac", "(arrivals shed by the gateway)")
	rep.add("service.short_frac", frac(float64(after.gw.Short.Arrived-before.gw.Short.Arrived), arrived), "frac", "(arrivals the gateway classed short; 0.8 by design)")
	if s.gw != nil {
		gatewayMetrics(rep, "service.", win)
	} else {
		for _, m := range []struct{ name, unit string }{{"short_p99_ms", "ms"}, {"long_p99_ms", "ms"}, {"goodput_qps", "1/s"}, {"slo_miss_frac", "frac"}} {
			rep.add("service."+m.name, 0, m.unit, "(no gateway)")
		}
	}

	fmt.Println("# engine")
	rep.pct("engine.self_ms_p50", sum.engineSelf, 0.5)
	for _, st := range []struct {
		name string
		kind plan.Kind
	}{{"aggregate", plan.KindAggregate}, {"hashjoin", plan.KindHashJoin}, {"sort", plan.KindSort}} {
		rep.add("engine.busy_ms_per_query."+st.name, per(ms(int64(stageBusy(after.eng, st.kind)-stageBusy(before.eng, st.kind)))), "ms", "(stage busy time)")
	}
	hits := float64(after.eng.CacheHits - before.eng.CacheHits)
	misses := float64(after.eng.CacheMisses - before.eng.CacheMisses)
	rep.add("engine.cache_hit_frac", frac(hits, hits+misses), "frac", "(result-cache hits per lookup)")
	rep.add("engine.sp_attach_frac", frac(float64(spAttached(after.eng)-spAttached(before.eng)), misses), "frac", "(SP satellite attaches per executed query)")

	fmt.Println("# cjoin")
	cj := func(f func(st *snapshot) int64) float64 { return float64(f(&after) - f(&before)) }
	rep.pct("cjoin.run_ms_p50", sum.runMs, 0.5)
	rep.pct("cjoin.run_ms_p99", sum.runMs, 0.99)
	rep.add("cjoin.busy_ms_per_query", per(ms(int64(after.cj.Busy-before.cj.Busy))), "ms", "(scanner, workers and distributor)")
	rep.add("cjoin.routed_per_query", per(cj(func(s *snapshot) int64 { return s.cj.TuplesRouted })), "count", "")
	rep.add("cjoin.probe_miss_frac", frac(cj(func(s *snapshot) int64 { return s.cj.ProbeMisses }), cj(func(s *snapshot) int64 { return s.cj.Probes })), "frac", "")
	rep.add("cjoin.drop_at_scan_frac", frac(cj(func(s *snapshot) int64 { return s.cj.DroppedAtScan }), cj(func(s *snapshot) int64 { return s.cj.FactTuplesIn })), "frac", "")
	rep.add("cjoin.emit_ms_per_query", per(ms(sum.emitNs)), "ms", "(Run blocked in emit: engine back-pressure)")
	rep.pct("cjoin.first_batch_ms_p50", sum.firstBatch, 0.5)
	scanned := cj(func(s *snapshot) int64 { return s.cj.PagesScanned })
	pruned := cj(func(s *snapshot) int64 { return s.cj.PagesPruned })
	rep.add("cjoin.pages_scanned_per_query", per(scanned), "count", "")
	rep.add("cjoin.pages_pruned_frac", frac(pruned, scanned+pruned), "frac", "")
	rep.add("cjoin.graft_frac", frac(cj(func(s *snapshot) int64 { return s.cj.Grafted }), cj(func(s *snapshot) int64 { return s.cj.Admitted })), "frac", "(admissions folded onto a running query)")
	rep.add("cjoin.slot_high_water", float64(after.cj.SlotHighWater), "count", "")

	fmt.Println("# storage")
	poolHits := float64(after.pool.Hits - before.pool.Hits)
	poolMisses := float64(after.pool.Misses - before.pool.Misses)
	fetched := float64(after.dec.Fetched - before.dec.Fetched)
	skipped := float64(after.dec.Pruned - before.dec.Pruned)
	rep.add("storage.disk_reads_per_query", per(float64(after.disk.PageReads-before.disk.PageReads)), "count", "")
	rep.add("storage.disk_read_ms_per_query", per(ms(sum.diskNs)), "ms", "(shared sweep, amortized; includes device queueing)")
	rep.add("storage.pool_hit_frac", frac(poolHits, poolHits+poolMisses), "frac", "")
	rep.add("storage.pool_evictions_per_query", per(float64(after.pool.Evictions-before.pool.Evictions)), "count", "")
	rep.add("storage.pages_decoded_per_query", per(float64(after.dec.Decoded-before.dec.Decoded)), "count", "")
	rep.add("storage.fetch_pruned_frac", frac(skipped, fetched+skipped), "frac", "")
	rep.add("storage.retries", float64(after.dec.Retries), "count", "(must be 0)")
	rep.add("storage.quarantined", float64(after.dec.Quarantined), "count", "(must be 0)")

	fmt.Println("# proc")
	cpu := after.cpu - before.cpu
	rep.add("proc.cpu_util", frac(cpu.Seconds(), wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "frac", "(getrusage CPU / (wall x GOMAXPROCS))")
	rep.add("proc.allocs_per_query", per(float64(after.mallocs-before.mallocs)), "count", "")
	rep.add("proc.gc_cpu_frac", frac(after.gcCPU-before.gcCPU, cpu.Seconds()), "frac", "")
	rep.add("proc.heap_peak_mb", heapMB, "MB", "")

	fmt.Println("# bench")
	rep.add("bench.trace_overhead_frac", 1-frac(win.qps(), base.qps()), "frac",
		fmt.Sprintf("(1 - traced qps %.1f / untraced qps %.1f)", win.qps(), base.qps()))
	rep.add("bench.checked_frac", frac(float64(chk.checked.Load()), float64(base.completed+win.completed)), "frac", "(answers compared with a reference)")
	rep.add("bench.reference_s", refDur.Seconds(), "s", "")
	rep.add("bench.failed_frac", frac(float64(win.failed), float64(win.attempted)), "frac", "(errors, sheds and wrong answers per attempt)")

	blockingPath(sum, n)
	if spansDir != "" {
		if err := os.MkdirAll(spansDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.tsv", w.name, seed))
		count, err := tr.write(path)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# %d spans written to %s\n", count, path)
	}
	return &result{rep: rep, attempted: base.attempted + win.attempted,
		failed: base.failed + win.failed, wrong: base.wrong + win.wrong}, nil
}

// blockingPath prints where a query's time goes, layer by layer, as mean
// self time per completed query. Disk reads serve the shared sweep, so their
// time is amortized over every query rather than on one query's path.
func blockingPath(sum traceSummary, n float64) {
	rows := []struct {
		layer string
		ns    int64
	}{
		{"service wait (Submit - Execute)", sum.submitSelf},
		{"engine self (Execute - cjoin.run)", sum.engineSelfT},
		{"cjoin self (Run - emit)", sum.runSelfNs},
		{"cjoin emit (engine back-pressure)", sum.emitNs},
		{"storage reads (amortized)", sum.diskNs},
	}
	fmt.Println("# blocking path, mean self ms per completed query:")
	for _, r := range rows {
		fmt.Printf("#   %-36s %10.4f\n", r.layer, frac(ms(r.ns), n))
	}
}
