package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"alloysim/internal/core"
	"alloysim/internal/memaddr"
	"alloysim/internal/obs"
	"alloysim/internal/trace"
)

// buildGenerators builds the per-core reference streams exactly as
// core.NewSystem does for a profile workload: one copy per core at a
// disjoint base, seeded seed + i*0x9e37, with the gap mean scaled by
// GapScale. tracedSim checks that a system fed these streams produces
// the same core.Result as one that built its own, so any drift from
// NewSystem fails the run.
func buildGenerators(cfg core.Config) ([]trace.Generator, error) {
	prof, ok := trace.ByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.GapScale > 1 {
		prof.GapMean *= cfg.GapScale
	}
	copySpan := memaddr.Line(prof.FootprintLines()/cfg.Scale + uint64(len(prof.Components)) + 1)
	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		g, err := prof.Build(cfg.Seed+uint64(i)*0x9e37, cfg.Scale, memaddr.Line(i)*copySpan)
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	return gens, nil
}

// warmSplit is shared by the counting generators of one simulation. The
// warm-up streams WarmupRefs references per core, so the call that
// brings n to boundary = WarmupRefs*Cores is the last one of warm-up.
type warmSplit struct {
	n, boundary uint64
	warmEnd     time.Time
}

// countingGen counts Next calls and stamps the host time at the warm-up
// boundary. It costs one increment and one compare per reference.
type countingGen struct {
	g     trace.Generator
	split *warmSplit
}

func (c *countingGen) Next() trace.Ref {
	s := c.split
	s.n++
	if s.n == s.boundary {
		s.warmEnd = time.Now()
	}
	return c.g.Next()
}

// simStats accumulates what the benchmark measures around simulations.
type simStats struct {
	sims        int
	instr       uint64
	wall        time.Duration // RunContext host time
	mallocs     uint64        // heap allocations inside RunContext
	allocBytes  uint64        // bytes allocated inside RunContext
	warm        time.Duration // traced runs: host time up to the warm-up boundary
	measure     time.Duration // traced runs: host time after it
	refs        uint64        // traced runs: generator Next calls
	events      uint64        // traced runs: engine events
	below       uint64        // accesses that left the L3 downward
	l3Hits      uint64
	l3Accesses  uint64
	lat         latSum
	resultCheck []string // conservation failures, one line each
}

// latSum sums the tracer's per-request latency breakdowns, in cycles.
type latSum struct {
	n                                  uint64
	pred, cQueue, cBank, cBus, cBurst  uint64
	mQueue, mBank, mBus, mBurst, other uint64
	total                              uint64
}

func (s *latSum) add(b *obs.Breakdown) error {
	s.n++
	s.pred += b.Pred
	s.cQueue += b.CacheQueue
	s.cBank += b.CacheBank
	s.cBus += b.CacheBus
	s.cBurst += b.CacheBurst
	s.mQueue += b.MemQueue
	s.mBank += b.MemBank
	s.mBus += b.MemBus
	s.mBurst += b.MemBurst
	s.other += b.Other
	s.total += b.Total
	return nil
}

// record adds one finished simulation's result to the totals and checks
// the simulated conservation law: every below-L3 read of a cached design
// is predicted exactly once.
func (s *simStats) record(res core.Result) {
	s.sims++
	s.instr += res.Instructions
	s.below += res.BelowReads + res.BelowWrites
	s.l3Hits += res.L3.Hits
	s.l3Accesses += res.L3.Accesses()
	if res.Design != core.DesignNone && res.Accuracy.Total() != res.BelowReads {
		s.resultCheck = append(s.resultCheck, fmt.Sprintf("%s/%s: %d predictions for %d below-L3 reads",
			res.Workload, res.Design, res.Accuracy.Total(), res.BelowReads))
	}
}

// runSim builds and runs one simulation untraced, measuring RunContext.
func runSim(ctx context.Context, cfg core.Config, st *simStats) (core.Result, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	res, err := sys.RunContext(ctx)
	st.wall += time.Since(t1)
	runtime.ReadMemStats(&m1)
	st.mallocs += m1.Mallocs - m0.Mallocs
	st.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	if err != nil {
		return core.Result{}, err
	}
	st.record(res)
	return res, nil
}

// tracedSim runs cfg with counting generators, a metrics registry and a
// 1-in-64 request tracer attached, and fails unless its result equals
// want, the untraced run's: tracing must not change what is simulated.
func tracedSim(ctx context.Context, cfg core.Config, want core.Result, st *simStats, spans *spanLog, parent int) error {
	gens, err := buildGenerators(cfg)
	if err != nil {
		return err
	}
	split := &warmSplit{boundary: cfg.WarmupRefs * uint64(cfg.Cores)}
	for i, g := range gens {
		gens[i] = &countingGen{g: g, split: split}
	}
	cfg.Generators = gens
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	trc := obs.NewTracer(64, 1<<16)
	sys.EnableObservability(reg, trc)

	t0 := time.Now()
	res, err := sys.RunContext(ctx)
	t1 := time.Now()
	if err != nil {
		return err
	}
	if split.warmEnd.IsZero() {
		return fmt.Errorf("%s: warm-up consumed %d of %d references", cfg.Workload, split.n, split.boundary)
	}
	id := spans.add("sim "+cfg.Workload, parent, t0, t1)
	spans.add("warm", id, t0, split.warmEnd)
	spans.add("measure", id, split.warmEnd, t1)
	if !reflect.DeepEqual(res, want) {
		return fmt.Errorf("%s: traced result differs from the untraced one:\n  traced:   %+v\n  untraced: %+v", cfg.Workload, res, want)
	}
	st.record(res)
	st.warm += split.warmEnd.Sub(t0)
	st.measure += t1.Sub(split.warmEnd)
	st.refs += split.n
	if ev, ok := reg.Value("sim_engine_events_total"); ok {
		st.events += uint64(ev)
	}
	return trc.EachBreakdown(st.lat.add)
}
