package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/cjoin"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/storage"
)

// spanKind is the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanSubmit  spanKind = iota // service: Gateway.Submit, recorded by the caller
	spanExecute                 // engine: Executor.Execute
	spanRun                     // cjoin: StarRunner.Run, with its emit callback summed in
	spanDisk                    // storage: Disk.ReadPage, on behalf of the shared sweep
)

var spanNames = [...]string{"service.submit", "engine.execute", "cjoin.run", "storage.read"}

// A span is one call across a layer boundary. The spans of one query share
// its id; disk reads belong to the shared sweep and carry id 0.
type span struct {
	qid        uint64
	kind       spanKind
	start, end int64 // ns since the tracer's origin
	firstEmit  int64 // cjoin.run: ns from start until the first emit was called; -1 if none
	emitNs     int64 // cjoin.run: ns spent inside emit, i.e. the engine pushing back
}

// A tracer keeps spans in memory while enabled; they are summarized and
// written out after the measured window.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type queryKey struct{}

// withQuery gives ctx a fresh query id when tracing is on.
func (t *tracer) withQuery(ctx context.Context) context.Context {
	if !t.enabled() {
		return ctx
	}
	return context.WithValue(ctx, queryKey{}, t.nextID.Add(1))
}

func queryID(ctx context.Context) uint64 {
	id, _ := ctx.Value(queryKey{}).(uint64)
	return id
}

// tracedExecutor times Execute, the seam between the gateway (or the
// closed-loop client) and the engine.
type tracedExecutor struct {
	e *engine.Engine
	t *tracer
}

func (x tracedExecutor) Execute(ctx context.Context, root plan.Node) (*engine.Result, error) {
	if !x.t.enabled() {
		return x.e.Execute(ctx, root)
	}
	s := span{qid: queryID(ctx), kind: spanExecute, start: x.t.now()}
	res, err := x.e.Execute(ctx, root)
	s.end = x.t.now()
	x.t.add(s)
	return res, err
}

func (x tracedExecutor) Stream(ctx context.Context, root plan.Node) (engine.Reader, error) {
	return x.e.Stream(ctx, root)
}

// tracedStar times StarRunner.Run, the seam between the engine and CJOIN,
// and the time Run spends inside emit. Run calls emit from its own
// goroutine, so the span needs no lock.
type tracedStar struct {
	op *cjoin.Operator
	t  *tracer
}

func (x tracedStar) Run(ctx context.Context, q *plan.StarQuery, emit func(*batch.Batch) error) error {
	if !x.t.enabled() {
		return x.op.Run(ctx, q, emit)
	}
	s := span{qid: queryID(ctx), kind: spanRun, start: x.t.now(), firstEmit: -1}
	err := x.op.Run(ctx, q, func(b *batch.Batch) error {
		t0 := x.t.now()
		if s.firstEmit < 0 {
			s.firstEmit = t0 - s.start
		}
		err := emit(b)
		s.emitNs += x.t.now() - t0
		return err
	})
	s.end = x.t.now()
	x.t.add(s)
	return err
}

// tracedDisk times page reads, the seam between the buffer pool and the
// (simulated) device; the time includes queueing for the device's slots.
type tracedDisk struct {
	storage.Disk
	t *tracer
}

func (d tracedDisk) ReadPage(f storage.FileID, idx int, buf []byte) error {
	if !d.t.enabled() {
		return d.Disk.ReadPage(f, idx, buf)
	}
	s := span{kind: spanDisk, start: d.t.now()}
	err := d.Disk.ReadPage(f, idx, buf)
	s.end = d.t.now()
	d.t.add(s)
	return err
}

// traceSummary is what the spans of one window say, per layer.
type traceSummary struct {
	waitMs      []float64 // service: Submit minus the nested Execute, per admitted query
	engineSelf  []float64 // engine: Execute minus the nested cjoin.run, per executed query
	runMs       []float64 // cjoin: Run, per admitted CJOIN query
	firstBatch  []float64 // cjoin: Run start to first emit
	runSelfNs   int64     // cjoin: Run minus time inside emit, summed
	emitNs      int64     // cjoin: time inside emit, summed
	diskNs      int64     // storage: page reads, summed
	submitSelf  int64     // service: summed wait, for the blocking-path table
	engineSelfT int64     // engine: summed self time
}

// overlap is the part of [s, e) that [cs, ce) covers.
func overlap(s, e, cs, ce int64) int64 {
	if cs < s {
		cs = s
	}
	if ce > e {
		ce = e
	}
	if ce < cs {
		return 0
	}
	return ce - cs
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// summarize pairs each query's spans by id and computes self times: a
// layer's self time is its span minus the part its child span covers.
func (t *tracer) summarize() traceSummary {
	t.mu.Lock() // a background page read may still be adding its span
	defer t.mu.Unlock()
	type trio struct{ submit, exec, run *span }
	byQuery := make(map[uint64]*trio)
	var sum traceSummary
	for i := range t.spans {
		s := &t.spans[i]
		if s.kind == spanDisk {
			sum.diskNs += s.end - s.start
			continue
		}
		q := byQuery[s.qid]
		if q == nil {
			q = &trio{}
			byQuery[s.qid] = q
		}
		switch s.kind {
		case spanSubmit:
			q.submit = s
		case spanExecute:
			q.exec = s
		case spanRun:
			q.run = s
		}
	}
	for _, q := range byQuery {
		if q.run != nil {
			r := q.run
			sum.runMs = append(sum.runMs, ms(r.end-r.start))
			if r.firstEmit >= 0 {
				sum.firstBatch = append(sum.firstBatch, ms(r.firstEmit))
			}
			sum.emitNs += r.emitNs
			sum.runSelfNs += r.end - r.start - r.emitNs
		}
		if e := q.exec; e != nil {
			self := e.end - e.start
			if q.run != nil {
				self -= overlap(e.start, e.end, q.run.start, q.run.end)
			}
			sum.engineSelf = append(sum.engineSelf, ms(self))
			sum.engineSelfT += self
			if sb := q.submit; sb != nil {
				wait := sb.end - sb.start - overlap(sb.start, sb.end, e.start, e.end)
				sum.waitMs = append(sum.waitMs, ms(wait))
				sum.submitSelf += wait
			}
		}
	}
	return sum
}

// write saves every span as one tab-separated line and returns how many.
func (t *tracer) write(path string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "qid\tspan\tstart_ns\tend_ns\tfirst_emit_ns\temit_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", s.qid, spanNames[s.kind], s.start, s.end, s.firstEmit, s.emitNs)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(t.spans), f.Close()
}
