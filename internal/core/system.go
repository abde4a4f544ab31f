package core

import (
	"context"
	"fmt"

	"alloysim/internal/cache"
	"alloysim/internal/cpu"
	"alloysim/internal/dram"
	"alloysim/internal/dramcache"
	"alloysim/internal/invariants"
	"alloysim/internal/memaddr"
	"alloysim/internal/obs"
	"alloysim/internal/predictor"
	"alloysim/internal/sim"
	"alloysim/internal/stats"
	"alloysim/internal/trace"
)

// System is one assembled simulation instance. Build it with NewSystem,
// run it once with Run.
type System struct {
	cfg      Config
	predKind PredictorKind

	eng     *sim.Engine
	l2      []*cache.Cache // private per-core L2s; nil when disabled
	l2Lat   sim.Cycle
	l3      *cache.Cache
	org     dramcache.Organization // nil for the no-DRAM-cache baseline
	pred    predictor.Predictor
	auth    bool // predictor has perfect contents knowledge
	mem     *dram.DRAM
	stacked *dram.DRAM
	gens    []trace.Generator
	srcs    []*directSource // per-core front-ends
	cores   []*cpu.Core

	// Measured statistics (reset after warmup).
	readLat        stats.Mean       // latency of reads serviced below the L3
	hitLat         stats.Mean       // DRAM-cache hits, measured from L3-miss detection
	hitLatHist     *stats.Histogram // same, bucketed for percentiles
	missLat        stats.Mean       // DRAM-cache misses, measured likewise
	missLatHist    *stats.Histogram
	acc            predictor.Accuracy
	belowReads     stats.Counter // L3 read misses
	belowWrites    stats.Counter // write traffic below the L3
	wastedMemReads stats.Counter // parallel probes discarded on cache hits
	footprint      *memaddr.LineSet

	// trc samples per-request lifecycle traces; nil (the common case)
	// disables tracing, and every hot-path call on it is a nil-safe
	// early return. Set via EnableObservability.
	trc *obs.Tracer

	// reg is the attached metrics registry (nil when observability is
	// off). RunContext publishes rendered snapshots into it between
	// quanta so debug-server scrapes never read live component fields.
	reg *obs.Registry

	// ts samples phase time-series columns at epoch boundaries and fr is
	// the always-on flight recorder ring; both nil when disabled and both
	// sampled only at quantum boundaries (sampleTelemetry). Set via
	// EnableTimeSeries / EnableFlightRecorder.
	ts *obs.TimeSeries
	fr *obs.FlightRecorder

	// Pooled engine events for the fill path (see events.go); freelists
	// keep steady-state scheduling allocation-free.
	fillFree *fillEvent
	wbFree   *writebackEvent

	// writeBuf holds the completion times of in-flight writes below the
	// L3. When it is full, further writes stall the issuing core
	// (store-buffer backpressure), which is what keeps unbounded write
	// streams from reserving DRAM banks arbitrarily far into the future.
	writeBuf    []sim.Cycle
	writeBufCap int

	// Scratch results for Organization.AccessInto. A local passed as &res
	// escapes through the interface call and costs one heap allocation
	// per access, so the demand path writes into these fields instead.
	// readBelow and writeBelow never nest (fills go through the engine
	// and call Fill, not AccessInto), so each needs only one. warm needs
	// none: it calls WarmAccess, which has no result.
	readRes  dramcache.AccessResult
	writeRes dramcache.AccessResult

	// tape, when restored from a warm tape (RestoreWarm), replaces the
	// warm-up's L3 step; rec, set only by RecordWarm, records it.
	tape tapeReader
	rec  *WarmTape

	ran bool
}

// directSource is a core's front-end: it advances the trace generator and
// then the private L2 (nil when the configuration has none) by one
// reference each time the core asks for one.
type directSource struct {
	gen trace.Generator
	l2  *cache.Cache
}

// NextRef implements cpu.RefSource.
//
//alloyvet:hotpath
func (d *directSource) NextRef() cpu.FrontRef {
	ref := d.gen.Next()
	fr := cpu.FrontRef{Line: ref.Line, PC: ref.PC, Gap: ref.Gap, Write: ref.Write}
	if d.l2 == nil {
		return fr
	}
	if ref.Write {
		// Stores probe the L2 (no allocate on write miss).
		fr.L2Hit = d.l2.Probe(ref.Line, true)
		return fr
	}
	hit, ev := d.l2.Access(ref.Line, false)
	fr.L2Hit = hit
	if ev.Valid && ev.Dirty {
		fr.L2WB = true
		fr.Victim = ev.Line
	}
	return fr
}

// NewSystem builds a system from the config.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, eng: sim.NewEngine(), writeBufCap: cfg.WriteBufferEntries}
	if s.writeBufCap <= 0 {
		s.writeBufCap = DefaultWriteBufferEntries
	}
	s.hitLatHist = stats.NewHistogram(8, 512) // 8-cycle buckets up to 4096
	s.missLatHist = stats.NewHistogram(8, 512)

	var err error
	if s.mem, err = dram.New(cfg.OffChip); err != nil {
		return nil, err
	}
	if s.stacked, err = dram.New(cfg.Stacked); err != nil {
		return nil, err
	}
	if s.org, err = buildOrganization(cfg.Design, cfg.ScaledCacheBytes(), s.stacked, cfg.DCPolicy); err != nil {
		return nil, err
	}

	l3Sets := int(cfg.ScaledL3Bytes()) / memaddr.LineSizeBytes / cfg.L3Assoc
	if l3Sets <= 0 {
		return nil, fmt.Errorf("core: config yields %d L3 sets (L3Bytes=%d, Scale=%d, L3Assoc=%d): scaled capacity truncates below one set",
			l3Sets, cfg.L3Bytes, cfg.Scale, cfg.L3Assoc)
	}
	l3Policy := cfg.L3Policy
	if l3Policy == "" {
		l3Policy = DefaultL3Policy
	}
	if s.l3, err = cache.New(cache.Config{Sets: l3Sets, Assoc: cfg.L3Assoc, Policy: l3Policy}); err != nil {
		return nil, err
	}

	if cfg.L2Bytes > 0 {
		assoc := cfg.L2Assoc
		if assoc <= 0 {
			assoc = 8
		}
		s.l2Lat = cfg.L2Latency
		if s.l2Lat == 0 {
			s.l2Lat = 12
		}
		l2Sets := int(cfg.L2Bytes/cfg.Scale) / memaddr.LineSizeBytes / assoc
		if l2Sets <= 0 {
			return nil, fmt.Errorf("core: config yields %d L2 sets (L2Bytes=%d, Scale=%d, L2Assoc=%d): scaled capacity truncates below one set",
				l2Sets, cfg.L2Bytes, cfg.Scale, assoc)
		}
		for i := 0; i < cfg.Cores; i++ {
			l2, err := cache.New(cache.Config{Sets: l2Sets, Assoc: assoc, Policy: "lru"})
			if err != nil {
				return nil, err
			}
			s.l2 = append(s.l2, l2)
		}
	}

	s.predKind = cfg.resolvePredictor()
	if s.org != nil {
		if s.pred, err = buildPredictor(s.predKind, cfg.Cores, s.org); err != nil {
			return nil, err
		}
		s.auth = authoritative(s.predKind)
	}

	if cfg.TrackFootprint {
		s.footprint = memaddr.NewLineSet()
	}

	if cfg.Generators != nil {
		s.gens = append(s.gens, cfg.Generators...)
	} else {
		// One generator per rate-mode copy, at disjoint physical bases.
		prof, _ := trace.ByName(cfg.Workload)
		if cfg.GapScale > 1 {
			scaled := uint64(prof.GapMean) * uint64(cfg.GapScale)
			if scaled > uint64(^uint32(0)) {
				return nil, fmt.Errorf("core: GapScale %d overflows the %q gap mean %d", cfg.GapScale, cfg.Workload, prof.GapMean)
			}
			prof.GapMean = uint32(scaled)
		}
		copySpan := memaddr.Line(prof.FootprintLines()/cfg.Scale + uint64(len(prof.Components)) + 1)
		for i := 0; i < cfg.Cores; i++ {
			g, err := prof.Build(cfg.Seed+uint64(i)*0x9e37, cfg.Scale, memaddr.Line(i)*copySpan)
			if err != nil {
				return nil, err
			}
			s.gens = append(s.gens, g)
		}
	}
	for i, g := range s.gens {
		var l2 *cache.Cache
		if s.l2 != nil && i < len(s.l2) {
			l2 = s.l2[i]
		}
		s.srcs = append(s.srcs, &directSource{gen: g, l2: l2})
	}
	return s, nil
}

// cancelQuantum is how far the engine runs between cancellation checks in
// RunContext, in cycles. It is comfortably larger than the longest
// event-free stretch (the refresh interval) so the quantum loop never
// spins, and small enough that cancellation lands within microseconds of
// real time.
const cancelQuantum sim.Cycle = 1 << 16

// Run warms the caches, executes the measured phase, and returns results.
// A System is single-use.
func (s *System) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is checked
// during warmup and between engine quanta of cancelQuantum cycles, so
// Ctrl-C and per-run timeouts abort a simulation within one quantum
// without perturbing the deterministic event order of uncancelled runs.
func (s *System) RunContext(ctx context.Context) (Result, error) {
	if s.ran {
		return Result{}, fmt.Errorf("core: System.Run called twice")
	}
	s.ran = true

	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := s.warm(ctx); err != nil {
		return Result{}, err
	}

	for i, src := range s.srcs {
		c, err := cpu.New(i, s.cfg.CPU, src, s.eng, s, s.cfg.InstructionsPerCore)
		if err != nil {
			return Result{}, err
		}
		s.cores = append(s.cores, c)
		c.Start()
	}
	// Epoch 0: the post-warmup state, before any measured event runs.
	// Subsequent samples land exactly at cancelQuantum boundaries.
	s.sampleTelemetry()
	limit := s.eng.Now() + cancelQuantum
	for !s.eng.RunUntil(limit) {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		s.sampleTelemetry()
		s.publishMetrics()
		limit += cancelQuantum
	}

	// Final epoch: the drained end-of-run state (generally not on a
	// quantum boundary; the cycle column records where it landed).
	s.sampleTelemetry()
	s.publishMetrics()
	return s.collect(), nil
}

// sampleTelemetry snapshots the registered time-series and flight-
// recorder columns at the current engine cycle. Runs on the simulation
// goroutine at quantum boundaries; reads counters, changes nothing.
func (s *System) sampleTelemetry() {
	if s.ts == nil && s.fr == nil {
		return
	}
	now := s.eng.Now().Count()
	s.ts.Sample(now)
	s.fr.Sample(now)
}

// publishMetrics renders a registry snapshot for concurrent /metrics
// scrapers (obs.Registry.PublishSnapshot). It runs on the simulation
// goroutine between engine quanta — the one place every component field
// is safe to read. Snapshot rendering only reads and formats: it cannot
// perturb event order, so results stay byte-identical with or without an
// attached registry.
func (s *System) publishMetrics() {
	if s.reg == nil {
		return
	}
	// The flight-recorder snapshot is gated on an attached registry: a
	// recorder without a debug surface (the runner's always-on black box)
	// skips per-quantum rendering. The runner renders it once, after the
	// run ends, whether the run succeeded or failed.
	s.fr.PublishSnapshot()
	s.reg.PublishSnapshot()
}

// warm streams WarmupRefs references per core through the cache contents
// without advancing time, then clears all statistics so measurement
// starts from warm contents and cold clocks. The organization warms
// through WarmAccess, its contents-only path, so neither DRAM device is
// touched before the measured phase. It checks ctx periodically so long
// warmups cancel as promptly as the measured phase.
//
// The front-end always runs: the generators (and any private L2) must
// reach their post-warm-up state. The L3 step is live (warmL3), or, when
// the System was restored from a tape, read from the tape, with the L3
// state copied in at the end. Either way the organization sees the same
// stream: warm-up never reads the organization's results, the predictor
// or simulated time, so nothing the tape leaves out can change it.
//
//alloyvet:hotpath
func (s *System) warm(ctx context.Context) error {
	tape := &s.tape
	for n := uint64(0); n < s.cfg.WarmupRefs; n++ {
		if n&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for _, src := range s.srcs {
			ref := src.NextRef()
			if ref.L2Hit {
				continue
			}
			// ref.L2WB is deliberately ignored: warmup streams contents
			// only, and an L2 victim writeback installs no new line below.
			var op warmOp
			var victim memaddr.Line
			if tape.t != nil {
				op, victim = tape.next()
			} else {
				op, victim = s.warmL3(ref)
			}
			if s.org == nil {
				continue
			}
			switch op {
			case warmVictimAccess:
				s.org.WarmAccess(victim, true)
				s.org.WarmAccess(ref.Line, false)
			case warmAccess:
				s.org.WarmAccess(ref.Line, ref.Write)
			}
		}
	}
	if tape.t != nil {
		if err := tape.finish(s.l3); err != nil {
			return err
		}
	}
	if invariants.Enabled && (s.mem.Stats() != dram.Stats{} || s.stacked.Stats() != dram.Stats{}) {
		invariants.Failf("core: warm-up touched DRAM timing (off-chip %+v, stacked %+v)", s.mem.Stats(), s.stacked.Stats())
	}
	s.l3.ResetStats()
	for _, l2 := range s.l2 {
		l2.ResetStats()
	}
	if s.org != nil {
		s.org.ResetStats()
	}
	return nil
}

// warmL3 is warm's live L3 step: it looks ref up in the L3 and returns
// what goes below, recording it when the System records a tape.
//
//alloyvet:hotpath
func (s *System) warmL3(ref cpu.FrontRef) (op warmOp, victim memaddr.Line) {
	if ref.Write {
		if !s.l3.Probe(ref.Line, true) {
			op = warmAccess
		}
	} else if hit, ev := s.l3.Access(ref.Line, false); !hit {
		op = warmAccess
		if ev.Valid && ev.Dirty {
			op, victim = warmVictimAccess, ev.Line
		}
	}
	if s.rec != nil {
		s.rec.record(op, victim)
	}
	return op, victim
}

// Read implements cpu.MemPort: the demand-load path. It returns the cycle
// the data arrives.
//
//alloyvet:hotpath
func (s *System) Read(now sim.Cycle, core int, ref cpu.FrontRef) sim.Cycle {
	if s.footprint != nil {
		s.footprint.Add(ref.Line)
	}
	if s.l2 != nil {
		// The private-L2 lookup already happened in the front-end; the
		// record carries its outcome.
		if ref.L2Hit {
			return now + s.l2Lat
		}
		now += s.l2Lat // L2 miss detected after its lookup
		if ref.L2WB {
			// Private-L2 dirty victim written into the shared L3.
			if !s.l3.Probe(ref.Victim, true) {
				issueAt, _ := s.admitWrite(now + s.cfg.L3Latency)
				s.writeBelow(issueAt, ref.Victim)
			}
		}
	}
	hit, ev := s.l3.Access(ref.Line, false)
	if hit {
		return now + s.cfg.L3Latency
	}
	t0 := now + s.cfg.L3Latency // miss detected after the L3 lookup
	if ev.Valid && ev.Dirty {
		// L3 dirty writeback: buffered, never blocks the read.
		issueAt, _ := s.admitWrite(t0)
		s.writeBelow(issueAt, ev.Line)
	}
	s.belowReads.Inc()
	done := s.readBelow(t0, core, ref.PC, ref.Line)
	s.readLat.Observe(float64(done - t0))
	return done
}

// Write implements cpu.MemPort: stores update the L3 in place on a hit and
// are forwarded below on a miss (no-allocate). A full write buffer stalls
// the core until a slot frees.
//
//alloyvet:hotpath
func (s *System) Write(now sim.Cycle, core int, ref cpu.FrontRef) sim.Cycle {
	if s.footprint != nil {
		s.footprint.Add(ref.Line)
	}
	if s.l2 != nil {
		if ref.L2Hit {
			return 0
		}
		now += s.l2Lat
	}
	if s.l3.Probe(ref.Line, true) {
		return 0
	}
	issueAt, stall := s.admitWrite(now + s.cfg.L3Latency)
	s.writeBelow(issueAt, ref.Line)
	return stall
}

// admitWrite reserves a write-buffer slot. It returns the cycle the write
// may issue and the cycle the core may resume (zero when unconstrained).
//
//alloyvet:hotpath
func (s *System) admitWrite(t sim.Cycle) (issueAt, stall sim.Cycle) {
	// Retire completed writes.
	live := s.writeBuf[:0]
	for _, c := range s.writeBuf {
		if c > t {
			live = append(live, c)
		}
	}
	s.writeBuf = live
	if len(s.writeBuf) < s.writeBufCap {
		return t, 0
	}
	// Buffer full: the write waits for the oldest in-flight write.
	oldest := s.writeBuf[0]
	for _, c := range s.writeBuf {
		if c < oldest {
			oldest = c
		}
	}
	return oldest, oldest
}

// noteWrite records a write's completion time in the buffer.
//
//alloyvet:hotpath
func (s *System) noteWrite(done sim.Cycle) {
	//alloyvet:allow(hotpath) growth is bounded by writeBufCap; the buffer reaches steady capacity during warmup
	s.writeBuf = append(s.writeBuf, done)
}

// readBelow services an L3 read miss, returning the data-arrival cycle.
// This is where the paper's access models live: the predictor chooses
// between the Serial Access Model (wait for the tag check before
// dispatching to memory) and the Parallel Access Model (probe memory
// alongside the cache).
//
//alloyvet:hotpath
func (s *System) readBelow(t0 sim.Cycle, core int, pc uint64, line memaddr.Line) sim.Cycle {
	tid := s.trc.Sample()
	if s.org == nil {
		var r dram.Result
		s.mem.AccessLineInto(t0, line, false, &r)
		if tid != 0 {
			s.traceMemOnly(tid, core, uint64(line), t0, &r)
		}
		return r.Done
	}

	predHit, predLat := s.pred.Predict(core, pc, line)
	t1 := t0 + predLat
	res := &s.readRes
	s.org.AccessInto(t1, line, false, res)

	var dataAt sim.Cycle
	var m dram.Result
	memStart := t1
	usedMem := false
	if res.Hit {
		dataAt = res.DataReady
		if !predHit {
			// PAM path on an actual hit: the parallel memory probe is
			// wasted bandwidth (Table 5's "serviced by cache, predicted
			// memory" scenario).
			s.mem.AccessLineInto(t1, line, false, &m)
			usedMem = true
			s.wastedMemReads.Inc()
		}
		s.hitLat.Observe(float64(dataAt - t0))
		s.hitLatHist.Observe((dataAt - t0).Count())
	} else {
		if predHit {
			// SAM path on an actual miss: memory dispatch waits for the
			// cache-miss detection.
			memStart = res.TagKnown
		}
		s.mem.AccessLineInto(memStart, line, false, &m)
		usedMem = true
		dataAt = m.Done
		if !predHit && !s.auth && res.TagKnown > dataAt {
			// §5.1: data returned by memory cannot be consumed until the
			// tag check confirms the line is not dirty in the cache —
			// unless the predictor knows contents exactly.
			dataAt = res.TagKnown
		}
		s.missLat.Observe(float64(dataAt - t0))
		s.missLatHist.Observe((dataAt - t0).Count())
		if res.Allocated {
			// The fill happens when the memory response arrives; it must
			// be scheduled through the engine, not reserved now — a
			// far-future synchronous reservation would make temporally
			// earlier requests (processed later) queue behind it.
			s.scheduleFill(dataAt, line, res.Victim, tid, int32(core))
		}
	}
	if tid != 0 {
		s.traceRead(tid, core, uint64(line), t0, t1, dataAt, memStart, predHit, res, &m, usedMem)
	}
	s.pred.Update(core, pc, line, res.Hit)
	s.acc.Record(predHit, res.Hit)
	return dataAt
}

// writeBelow services write traffic below the L3 (L3 writebacks and
// forwarded write misses). Writes always use the serial model (§5.3).
//
//alloyvet:hotpath
func (s *System) writeBelow(t sim.Cycle, line memaddr.Line) {
	s.belowWrites.Inc()
	if s.org == nil {
		var r dram.Result
		s.mem.AccessLineInto(t, line, true, &r)
		s.noteWrite(r.Done)
		return
	}
	res := &s.writeRes
	s.org.AccessInto(t, line, true, res)
	if res.Hit {
		s.noteWrite(res.DataReady)
		return
	}
	var r dram.Result
	s.mem.AccessLineInto(res.TagKnown, line, true, &r)
	s.noteWrite(r.Done)
}
