package core

import (
	"alloysim/internal/dram"
	"alloysim/internal/dramcache"
	"alloysim/internal/obs"
	"alloysim/internal/sim"
)

// EnableObservability attaches a metrics registry and/or a sampling
// tracer to the system. Call it after NewSystem and before Run; either
// argument may be nil to enable only the other. Registration captures
// read-back closures over the existing statistic fields — nothing about
// the simulation's event order or timing changes, which is what keeps
// results/ byte-identical whether or not observability is on.
func (s *System) EnableObservability(reg *obs.Registry, trc *obs.Tracer) {
	s.trc = trc
	if reg == nil {
		return
	}
	s.reg = reg
	s.eng.RegisterMetrics(reg, "sim_engine")
	s.l3.RegisterMetrics(reg, "l3")
	s.mem.RegisterMetrics(reg, "dram_offchip")
	s.stacked.RegisterMetrics(reg, "dram_stacked")
	if s.org != nil {
		s.org.RegisterMetrics(reg, "dramcache")
		s.acc.RegisterMetrics(reg, "predictor")
	}
	reg.RegisterCounterFunc("below_reads_total", "L3 read misses serviced below the L3", func() uint64 { return s.belowReads.Value() })
	reg.RegisterCounterFunc("below_writes_total", "write traffic below the L3", func() uint64 { return s.belowWrites.Value() })
	reg.RegisterCounterFunc("wasted_mem_reads_total", "parallel memory probes discarded on cache hits", func() uint64 { return s.wastedMemReads.Value() })
	reg.RegisterHistogram("hit_latency_cycles", "DRAM-cache hit latency from L3-miss detection", s.hitLatHist)
	reg.RegisterHistogram("miss_latency_cycles", "DRAM-cache miss latency from L3-miss detection", s.missLatHist)
	reg.RegisterGaugeFunc("read_latency_mean_cycles", "mean latency of reads serviced below the L3", func() float64 { return s.readLat.Value() })
	// Publish the t=0 snapshot now, while nothing is running: from here
	// on, debug-server scrapes serve rendered snapshots (refreshed
	// between quanta by RunContext) instead of racing live fields.
	reg.PublishSnapshot()
}

// EnableTimeSeries attaches a phase time-series sampler. Call it after
// NewSystem and before Run; RunContext samples the registered columns at
// epoch 0, at every cancelQuantum boundary, and once at drain. Sampling
// happens at fixed engine cycles, so the exported series is byte-identical
// across runs of the same configuration. Like EnableObservability,
// registration captures read-back closures only; simulation results are
// unchanged.
func (s *System) EnableTimeSeries(ts *obs.TimeSeries) {
	if ts == nil {
		return
	}
	s.ts = ts
	s.registerColumns(ts)
}

// EnableFlightRecorder attaches the always-on black box: the same column
// set as EnableTimeSeries sampled into a fixed ring of recent epochs,
// plus the recorder's sparse lifecycle tracer installed as the system
// tracer when no explicit one is attached (an explicit tracer wins; the
// recorder then dumps without spans). Negligible cost: a few dozen
// closure reads per 2^16 cycles and a 1-in-N counter probe per request.
func (s *System) EnableFlightRecorder(fr *obs.FlightRecorder) {
	if fr == nil {
		return
	}
	s.fr = fr
	s.registerColumns(fr)
	if s.trc == nil {
		s.trc = fr.Tracer()
	}
}

// registerColumns registers the engine-owned phase columns into a sink;
// shared by EnableTimeSeries and EnableFlightRecorder so both consumers
// see the same schema. The sampled cycle itself is the row key, so the
// engine contributes only its event counters. Per-bank columns are
// registered for the stacked device only (the object of the paper's
// bank-occupancy analysis); the off-chip device exports aggregates.
func (s *System) registerColumns(sink obs.ColumnSink) {
	s.eng.RegisterTimeSeries(sink, "sim_engine")
	s.l3.RegisterTimeSeries(sink, "l3")
	s.mem.RegisterTimeSeries(sink, "dram_offchip")
	s.stacked.RegisterTimeSeries(sink, "dram_stacked")
	if s.org != nil {
		s.org.RegisterTimeSeries(sink, "dramcache")
		s.acc.RegisterTimeSeries(sink, "predictor")
		s.stacked.RegisterBankTimeSeries(sink, "dram_stacked")
	}
	sink.AddColumn("below_reads_total", func() uint64 { return s.belowReads.Value() })
	sink.AddColumn("below_writes_total", func() uint64 { return s.belowWrites.Value() })
	sink.AddColumn("wasted_mem_reads_total", func() uint64 { return s.wastedMemReads.Value() })
}

// TimeSeries returns the attached sampler (nil when disabled); the CLIs
// use it to export the series after the run.
func (s *System) TimeSeries() *obs.TimeSeries { return s.ts }

// FlightRecorder returns the attached recorder (nil when disabled).
func (s *System) FlightRecorder() *obs.FlightRecorder { return s.fr }

// Tracer returns the attached tracer (nil when tracing is off); the CLIs
// use it to export the trace files after the run.
func (s *System) Tracer() *obs.Tracer { return s.trc }

// cyclesBetween returns b-a in raw cycles, saturating at zero. The trace
// decomposition subtracts timestamps that are ordered on the critical
// path by construction; saturation keeps a future model change from
// turning a misordering into a wrapped uint64.
func cyclesBetween(a, b sim.Cycle) uint64 {
	if b <= a {
		return 0
	}
	return (b - a).Count()
}

// minCycle returns the earlier of two cycles.
func minCycle(a, b sim.Cycle) sim.Cycle {
	if a < b {
		return a
	}
	return b
}

// dramSpans records the queue/bank/bus/burst segments of one DRAM access
// as four spans starting from its issue cycle.
func (s *System) dramSpans(tid uint64, core int32, line uint64, issue sim.Cycle, r *dram.Result, queue, bank, bus, burst obs.SpanKind, hit bool) {
	s.trc.Span(tid, queue, core, line, issue.Count(), cyclesBetween(issue, r.Start), hit)
	s.trc.Span(tid, bank, core, line, r.Start.Count(), cyclesBetween(r.Start, r.CASDone), hit)
	s.trc.Span(tid, bus, core, line, r.CASDone.Count(), cyclesBetween(r.CASDone, r.BusStart), hit)
	s.trc.Span(tid, burst, core, line, r.BusStart.Count(), cyclesBetween(r.BusStart, r.Done), hit)
}

// traceMemOnly records the lifecycle of a baseline (no DRAM cache) read:
// one read span plus the off-chip segments, and a breakdown whose only
// components are the memory ones.
func (s *System) traceMemOnly(tid uint64, core int, lineAddr uint64, t0 sim.Cycle, m *dram.Result) {
	c := int32(core)
	s.trc.Span(tid, obs.SpanRead, c, lineAddr, t0.Count(), cyclesBetween(t0, m.Done), false)
	s.dramSpans(tid, c, lineAddr, t0, m, obs.SpanMemQueue, obs.SpanMemBank, obs.SpanMemBus, obs.SpanMemBurst, false)
	total := cyclesBetween(t0, m.Done)
	b := obs.Breakdown{
		ReqID: tid, Line: lineAddr, Core: c,
		Start: t0.Count(), Total: total,
		MemQueue: cyclesBetween(t0, m.Start),
		MemBank:  cyclesBetween(m.Start, m.CASDone),
		MemBus:   cyclesBetween(m.CASDone, m.BusStart),
		MemBurst: cyclesBetween(m.BusStart, m.Done),
	}
	b.Other = total - b.MemQueue - b.MemBank - b.MemBus - b.MemBurst
	s.trc.Record(b)
}

// traceRead records a sampled DRAM-cache read's spans and its
// critical-path-additive latency breakdown.
//
// The decomposition rule: a segment is charged only when it lies on the
// request's critical path. Cache segments count on hits and on serialized
// (predicted-hit) misses; memory segments count on misses; the parallel
// PAM probe of the losing side is shown in the span timeline but never
// charged. Other is the exact remainder — tag checks, SRAM lookups, the
// §5.1 tag-confirmation wait — so every row's components sum to Total.
func (s *System) traceRead(tid uint64, core int, lineAddr uint64, t0, t1, dataAt, memStart sim.Cycle,
	predHit bool, res *dramcache.AccessResult, m *dram.Result, usedMem bool) {
	c := int32(core)
	total := cyclesBetween(t0, dataAt)
	s.trc.Span(tid, obs.SpanRead, c, lineAddr, t0.Count(), total, res.Hit)
	s.trc.Span(tid, obs.SpanPredict, c, lineAddr, t0.Count(), cyclesBetween(t0, t1), res.Hit)
	if res.Probed {
		s.dramSpans(tid, c, lineAddr, t1, &res.First, obs.SpanDCQueue, obs.SpanDCBank, obs.SpanDCBus, obs.SpanDCBurst, res.Hit)
	}
	if usedMem {
		s.dramSpans(tid, c, lineAddr, memStart, m, obs.SpanMemQueue, obs.SpanMemBank, obs.SpanMemBus, obs.SpanMemBurst, res.Hit)
	}

	b := obs.Breakdown{
		ReqID: tid, Line: lineAddr, Core: c, Hit: res.Hit,
		Start: t0.Count(), Total: total,
		Pred: cyclesBetween(t0, t1),
	}
	// Cache segments are on the critical path for hits always, and for
	// misses only when the predictor said hit (SAM serializes the memory
	// dispatch behind the tag check). Designs with a dedicated tag path
	// (TDRAM) resolve a miss mid-burst: memory dispatch then overlaps the
	// tail of the cache access, so segments are clipped at the dispatch
	// cycle — only the pre-dispatch portion is serialized. For every
	// tags-with-data design TagKnown follows First.Done and the clip is a
	// no-op.
	if res.Probed && (res.Hit || predHit) {
		lim := res.First.Done
		if !res.Hit && memStart < lim {
			lim = memStart
		}
		b.CacheQueue = cyclesBetween(t1, minCycle(res.First.Start, lim))
		b.CacheBank = cyclesBetween(minCycle(res.First.Start, lim), minCycle(res.First.CASDone, lim))
		b.CacheBus = cyclesBetween(minCycle(res.First.CASDone, lim), minCycle(res.First.BusStart, lim))
		b.CacheBurst = cyclesBetween(minCycle(res.First.BusStart, lim), lim)
	}
	if usedMem && !res.Hit {
		b.MemQueue = cyclesBetween(memStart, m.Start)
		b.MemBank = cyclesBetween(m.Start, m.CASDone)
		b.MemBus = cyclesBetween(m.CASDone, m.BusStart)
		b.MemBurst = cyclesBetween(m.BusStart, m.Done)
	}
	charged := b.Pred + b.CacheQueue + b.CacheBank + b.CacheBus + b.CacheBurst +
		b.MemQueue + b.MemBank + b.MemBus + b.MemBurst
	if charged <= total {
		b.Other = total - charged
	} else {
		// A hit slower than its cache segments cannot happen on the
		// critical path; clamp rather than wrap if a model change breaks
		// the ordering.
		b.Other = 0
	}
	s.trc.Record(b)
}
