package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/cjoin"
	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/ssb"
	"repro/internal/storage"
)

// Sizes shared by every workload. At SF 0.03 the fact table holds 180k rows
// in about 140 pages of 32 KiB.
const (
	scaleFactor = 0.03
	poolSize    = 2048 // instances in a workload's cold pool
	hotSize     = 16   // dated-disk-reuse: the "dashboard" windows
	hotShare    = 0.3  // dated-disk-reuse: share of draws from the hot set
	diskPool    = 48   // dated-disk-reuse: buffer-pool frames, about a third of the fact table
	inflight    = 8    // queries in flight
	warmQueries = 512  // queries run at the end of set-up, before any timing

	// Latency limits of the gateway's classes: a right answer within its
	// class's limit counts toward goodput.
	shortLimit = 100 * time.Millisecond
	longLimit  = 500 * time.Millisecond
)

// A workload is one input mix run against the system in its shipped
// configuration.
type workload struct {
	name      string
	clustered bool // fact table generated in lo_orderdate order
	disk      bool // fact pages live on the simulated HDD behind diskPool frames
	gateway   bool // queries go through a service.Gateway in front of the engine
	mix       func(db *ssb.DB, seed int64) mix
}

var workloads = []workload{
	{name: "ssb-mix-mem", mix: ssbMix},
	{name: "dated-disk-reuse", clustered: true, disk: true, gateway: true, mix: datedReuse},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// A mix is a workload's query population: instances built against one
// database, and a seeded draw of the next instance's index. Building the
// same mix from the same seed against a database generated from the same
// seed gives index-aligned instances, which is how the reference twin
// answers the very queries the system under test runs.
type mix struct {
	insts []ssb.Instance
	draw  func(r *rand.Rand) int
}

// ssbMix holds all 13 SSB templates plus ParametricWindowJoin in equal
// shares (146 or 147 instances each), drawn uniformly. Instances are not
// deduplicated: Q3.1 has only 25 distinct parameter sets and Q2.1, Q3.2 and
// Q4.1 at most 125 each, so a pool of distinct signatures could not give
// them their share.
func ssbMix(db *ssb.DB, seed int64) mix {
	r := rand.New(rand.NewSource(seed))
	insts := make([]ssb.Instance, poolSize)
	for k := range insts {
		if t := k % (len(ssb.AllTemplates) + 1); t < len(ssb.AllTemplates) {
			insts[k] = ssb.Instantiate(db, ssb.AllTemplates[t], r)
		} else {
			width := 1 + r.Int63n(25) // lo_quantity spans 1..50
			insts[k] = ssb.ParametricWindowJoin(db, width, r.Int63n(51-width))
		}
	}
	return mix{insts: insts, draw: func(r *rand.Rand) int { return r.Intn(len(insts)) }}
}

// dateWindow draws a window covering sel% of the calendar at a random start.
func dateWindow(db *ssb.DB, r *rand.Rand, sel int) ssb.Instance {
	days := len(db.DateKeys)
	return ssb.DateWindow(db, sel, r.Intn(days-days*sel/100+1))
}

// datedReuse draws 30% of queries from 16 hot windows and the rest from a
// pool of 2048, all distinct, each set in equal shares (up to one instance)
// at 2/5/10/25/50% selectivity. Every selectivity has over 1200 distinct
// windows, so the draws for distinct ones end.
func datedReuse(db *ssb.DB, seed int64) mix {
	r := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	sels := []int{2, 5, 10, 25, 50}
	windows := func(n int) []ssb.Instance {
		out := make([]ssb.Instance, n)
		for k := range out {
			for {
				in := dateWindow(db, r, sels[k%len(sels)])
				if sig := in.Signature(); !seen[sig] {
					seen[sig], out[k] = true, in
					break
				}
			}
		}
		return out
	}
	insts := append(windows(hotSize), windows(poolSize)...)
	return mix{insts: insts, draw: func(r *rand.Rand) int {
		if r.Float64() < hotShare {
			return r.Intn(hotSize)
		}
		return hotSize + r.Intn(poolSize)
	}}
}

// memFrames sizes a memory-resident buffer pool the way the scenario
// environments do: twice an over-estimate of the database's pages, so that
// nothing is ever evicted.
func memFrames() int {
	pages := int(ssb.LineorderRowsPerSF*scaleFactor)*80/storage.PageSize + 256
	return pages*2 + 256
}

// A system is the database, the CJOIN operator and the engine (plus the
// gateway where the workload has one) in the shipped configuration: CJOIN for star
// sub-plans, pull-based SP on every stage, the result cache on, and every
// other setting at its zero-value default.
type system struct {
	w     workload
	mem   *storage.MemDisk
	cat   *storage.Catalog
	op    *cjoin.Operator
	eng   *engine.Engine
	exec  service.Executor // eng, or its traced wrapper
	gw    *service.Gateway // nil unless the workload has a gateway
	mix   mix
	trace *tracer // nil unless the run is traced
}

// newSystem generates the database from seed and starts the operator. With a
// tracer, the three public seams (Disk, StarRunner, Executor) are wrapped.
func newSystem(w workload, seed int64, tr *tracer) (*system, error) {
	s := &system{w: w, trace: tr}
	profile, frames := storage.DiskProfile{}, memFrames()
	if w.disk {
		profile, frames = storage.HDDProfile, diskPool
	}
	s.mem = storage.NewMemDisk(profile)
	var disk storage.Disk = s.mem
	if tr != nil {
		disk = tracedDisk{Disk: s.mem, t: tr}
	}
	s.cat = storage.NewCatalog(disk, frames, true)
	db, err := ssb.GenerateOpts(s.cat, scaleFactor, seed, ssb.GenOptions{DateClustered: w.clustered})
	if err != nil {
		return nil, fmt.Errorf("generate ssb: %w", err)
	}
	s.op, err = cjoin.NewOperator(db.Lineorder, []cjoin.DimSpec{
		{Table: db.Date, FactKeyCol: ssb.LOOrderDate, DimKeyCol: ssb.DDateKey},
		{Table: db.Customer, FactKeyCol: ssb.LOCustKey, DimKeyCol: ssb.CCustKey},
		{Table: db.Supplier, FactKeyCol: ssb.LOSuppKey, DimKeyCol: ssb.SSuppKey},
		{Table: db.Part, FactKeyCol: ssb.LOPartKey, DimKeyCol: ssb.PPartKey},
	}, cjoin.Config{})
	if err != nil {
		return nil, fmt.Errorf("start cjoin: %w", err)
	}
	if w.disk {
		db.Lineorder.ScanGroup().SetDemandFirst(true)
	}
	var star engine.StarRunner = s.op
	if tr != nil {
		star = tracedStar{op: s.op, t: tr}
	}
	s.eng = engine.New(s.cat, engine.Config{SP: true, Model: engine.SPPull, ResultCache: true, Star: star})
	s.exec = s.eng
	if tr != nil {
		s.exec = tracedExecutor{e: s.eng, t: tr}
	}
	if w.gateway {
		s.gw = service.NewGateway(s.exec, service.Config{})
	}
	s.mix = w.mix(db, seed)
	return s, nil
}

// query runs instance i the way the workload sends it: through the gateway,
// or straight to the executor.
func (s *system) query(ctx context.Context, i int) (*engine.Result, error) {
	root := s.mix.insts[i].Plan(true)
	if s.gw == nil {
		return s.exec.Execute(ctx, root)
	}
	if !s.trace.enabled() {
		return s.gw.Submit(ctx, root)
	}
	start := s.trace.now()
	res, err := s.gw.Submit(ctx, root)
	s.trace.add(span{qid: queryID(ctx), kind: spanSubmit, start: start, end: s.trace.now()})
	return res, err
}

// warm runs warmQueries draws closed-loop so the buffer pool, result cache
// and classifier cache reach their steady state before anything is timed.
func (s *system) warm(ctx context.Context, seed int64) error {
	var first atomic.Value
	closedLoop(inflight, 0, warmQueries, seed^0x5eed, func(_ int, r *rand.Rand) {
		if _, err := s.query(ctx, s.mix.draw(r)); err != nil {
			first.CompareAndSwap(nil, err)
		}
	})
	if err, ok := first.Load().(error); ok {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// long reports whether the gateway classes instance i long (its estimate is
// memoized, so asking again is cheap and changes nothing).
func (s *system) long(i int) bool {
	class, _ := s.gw.Classify(s.mix.insts[i].Plan(true))
	return class == service.ClassLong
}

func (s *system) close() {
	s.op.Close()
	_ = s.mem.Close() // in-memory pages only; nothing to flush
}
