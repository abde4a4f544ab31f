package main

import (
	"sort"
	"time"

	"alloysim/internal/dramcache"
	"alloysim/internal/experiments"
)

// replayRefsPerCore is how many references per core the replay harness
// captures from each point workload's generators.
const replayRefsPerCore = 40_000

// layerInputs is what a traced run measured before the replay harness.
type layerInputs struct {
	untraced, traced *simStats // simulations run without and with tracing
	runner           experiments.Metrics
	pointWalls       []float64 // host seconds of each Runner point
	expWalls         map[string]time.Duration
	busyFrac         float64
	cpuFrac          float64
	overhead         float64 // traced wall / untraced wall - 1
}

// sweepExperiments lists every experiment a sweep workload runs; each
// gets an exp.<id>.wall_s metric.
func sweepExperiments() []string {
	var ids []string
	for _, w := range workloads {
		if s, ok := w.(*sweepWorkload); ok {
			ids = append(ids, s.ids...)
		}
	}
	sort.Strings(ids)
	return ids
}

// setLayerMetrics runs the replay harness over the point workloads'
// streams and sets every per-layer metric. Metrics of a layer the
// workload does not reach (the Runner on point) read 0.
func (b *bench) setLayerMetrics(in layerInputs) error {
	rs := newReplayStats()
	id := b.spans.begin("replay", 0)
	for _, wl := range pointWorkloads {
		if err := replay(pointConfig(wl, b.seed), replayRefsPerCore, rs, b.spans, id); err != nil {
			return err
		}
	}
	b.spans.finish(id)

	m := b.metrics
	t, u := in.traced, in.untraced
	m.set("trace.ns_per_ref", rs.trace.nsPerCall())
	m.set("trace.allocs_per_ref", rs.trace.allocsPerCall())
	m.set("trace.refs", float64(t.refs))

	m.set("cache.l3.ns_per_access", rs.l3.nsPerCall())
	m.set("cache.l3.allocs_per_access", rs.l3.allocsPerCall())
	m.set("cache.l3.hit_ratio", float64(t.l3Hits)/float64(t.l3Accesses))

	for _, name := range dramcache.Names() {
		m.set("dramcache."+name+".ns_per_access", rs.orgs[name].nsPerCall())
		m.set("dramcache."+name+".allocs_per_access", rs.orgs[name].allocsPerCall())
		m.set("dramcache."+name+".hit_ratio", rs.orgs[name].ratio())
	}
	for _, k := range predictorKinds {
		name := string(k)
		m.set("predictor."+name+".ns_per_predict", rs.preds[name].nsPerCall())
		m.set("predictor."+name+".allocs_per_predict", rs.preds[name].allocsPerCall())
		m.set("predictor."+name+".accuracy", rs.preds[name].ratio())
	}

	m.set("dram.offchip.ns_per_access", rs.offchip.nsPerCall())
	m.set("dram.offchip.allocs_per_access", rs.offchip.allocsPerCall())
	m.set("dram.offchip.row_hit_ratio", rs.offchip.ratio())
	m.set("dram.stacked.ns_per_access", rs.stacked.nsPerCall())
	m.set("dram.stacked.allocs_per_access", rs.stacked.allocsPerCall())

	m.set("sim.events", float64(t.events))
	m.set("sim.host_ns_per_event", float64(t.measure.Nanoseconds())/float64(t.events))

	m.set("core.warm_s", t.warm.Seconds())
	m.set("core.measure_s", t.measure.Seconds())
	m.set("core.warm_frac", t.warm.Seconds()/(t.warm+t.measure).Seconds())
	m.set("core.allocs_per_sim", float64(u.mallocs)/float64(u.sims))
	m.set("core.minstr_per_s", float64(u.instr)/u.wall.Seconds()/1e6)
	m.set("core.host_ns_per_below_access", float64(t.measure.Nanoseconds())/float64(t.below))
	n := float64(t.lat.n)
	for _, c := range []struct {
		name string
		sum  uint64
	}{
		{"pred", t.lat.pred},
		{"cache_queue", t.lat.cQueue}, {"cache_bank", t.lat.cBank}, {"cache_bus", t.lat.cBus}, {"cache_burst", t.lat.cBurst},
		{"mem_queue", t.lat.mQueue}, {"mem_bank", t.lat.mBank}, {"mem_bus", t.lat.mBus}, {"mem_burst", t.lat.mBurst},
		{"other", t.lat.other}, {"total", t.lat.total},
	} {
		m.set("core.lat."+c.name+"_cyc", float64(c.sum)/n)
	}

	m.set("runner.points_run", float64(in.runner.PointsRun))
	m.set("runner.memo_hits", float64(in.runner.MemoHits))
	m.set("runner.flight_joins", float64(in.runner.FlightJoins))
	m.set("runner.sim_wall_s", in.runner.SimWall.Seconds())
	m.set("runner.busy_frac", in.busyFrac)
	m.set("runner.point_p50_s", quantile(in.pointWalls, 0.5))
	m.set("runner.point_p95_s", quantile(in.pointWalls, 0.95))
	for _, id := range sweepExperiments() {
		m.set("exp."+id+".wall_s", in.expWalls[id].Seconds())
	}

	m.set("proc.cpu_frac", in.cpuFrac)
	m.set("obs.trace_overhead_frac", in.overhead)
	return nil
}
