package main

import (
	"fmt"
	"runtime"
	"time"

	"alloysim/internal/cache"
	"alloysim/internal/core"
	"alloysim/internal/dram"
	"alloysim/internal/dramcache"
	"alloysim/internal/memaddr"
	"alloysim/internal/predictor"
	"alloysim/internal/sim"
	"alloysim/internal/trace"
)

// The layer replay harness drives each layer a demand access crosses
// through its public functions, one layer at a time: capture a reference
// stream from the trace generators, push it through a DIP L3, then push
// the L3's misses and writebacks through every DRAM-cache organization,
// every predictor and both DRAM devices. Each layer's loop is timed as
// one span, with the heap allocations it made, so a regression points at
// one layer.

// coreRef is one captured reference with the core that issued it.
type coreRef struct {
	trace.Ref
	core int32
}

// belowRef is one request the L3 sends down: a read miss, a dirty
// writeback or a forwarded write miss.
type belowRef struct {
	line  memaddr.Line
	pc    uint64
	core  int32
	write bool
}

// layerStat is what the harness measures for one layer: the host cost
// of its replay loops and, for a layer with an outcome, how many calls
// were useful (hits, correct predictions, row hits) out of how many.
type layerStat struct {
	calls, allocs uint64
	dur           time.Duration
	num, den      uint64
}

func (l *layerStat) add(o layerStat) {
	l.calls += o.calls
	l.allocs += o.allocs
	l.dur += o.dur
	l.num += o.num
	l.den += o.den
}

func (l layerStat) nsPerCall() float64 { return float64(l.dur.Nanoseconds()) / float64(l.calls) }

func (l layerStat) allocsPerCall() float64 { return float64(l.allocs) / float64(l.calls) }

func (l layerStat) ratio() float64 { return float64(l.num) / float64(l.den) }

// replayStats is what the harness measures over one or more streams.
type replayStats struct {
	trace, l3, offchip, stacked layerStat
	orgs, preds                 map[string]*layerStat
	below                       int // requests below the L3
}

func newReplayStats() *replayStats {
	return &replayStats{orgs: map[string]*layerStat{}, preds: map[string]*layerStat{}}
}

// addTo adds o to the named entry of m.
func addTo(m map[string]*layerStat, name string, o layerStat) {
	if m[name] == nil {
		m[name] = &layerStat{}
	}
	m[name].add(o)
}

// predictorKinds are the memory access predictors the harness replays,
// named as core.PredictorKind spells them.
var predictorKinds = []core.PredictorKind{
	core.PredSAM, core.PredPAM, core.PredMAPG, core.PredMAPI, core.PredMissMap, core.PredPerfect,
}

const (
	// arrival spaces the replayed below-L3 requests in simulated time.
	arrival = 20
	// fillDelay stands in for the memory latency between a read miss
	// resolving its tag and the fill of the returned line.
	fillDelay = 200
)

// timed runs fn as one span and returns its wall time and the heap
// allocations it made.
func timed(spans *spanLog, name string, parent, calls int, fn func()) layerStat {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	spans.add(name, parent, t0, t1)
	return layerStat{calls: uint64(calls), dur: t1.Sub(t0), allocs: m1.Mallocs - m0.Mallocs}
}

// replay runs the harness over the stream of cfg's workload, perCore
// references per core, and adds the measurements to st.
func replay(cfg core.Config, perCore int, st *replayStats, spans *spanLog, parent int) error {
	root := spans.begin("replay "+cfg.Workload, parent)
	defer spans.finish(root)

	gens, err := buildGenerators(cfg)
	if err != nil {
		return err
	}
	refs := make([]coreRef, 0, perCore*len(gens))
	c := timed(spans, "trace.Next", root, perCore*len(gens), func() {
		for i := 0; i < perCore; i++ {
			for id, g := range gens {
				refs = append(refs, coreRef{Ref: g.Next(), core: int32(id)})
			}
		}
	})
	st.trace.add(c)

	l3Sets := int(cfg.ScaledL3Bytes()) / memaddr.LineSizeBytes / cfg.L3Assoc
	l3, err := cache.New(cache.Config{Sets: l3Sets, Assoc: cfg.L3Assoc, Policy: "dip"})
	if err != nil {
		return err
	}
	below := make([]belowRef, 0, len(refs))
	c = timed(spans, "cache.Access", root, len(refs), func() {
		// The same walk as the simulator's warm-up: a write updates the
		// L3 in place or goes below; a read miss sends a dirty victim
		// below, then itself.
		for _, r := range refs {
			if r.Write {
				if !l3.Probe(r.Line, true) {
					below = append(below, belowRef{line: r.Line, pc: r.PC, core: r.core, write: true})
				}
				continue
			}
			hit, ev := l3.Access(r.Line, false)
			if hit {
				continue
			}
			if ev.Valid && ev.Dirty {
				below = append(below, belowRef{line: ev.Line, pc: r.PC, core: r.core, write: true})
			}
			below = append(below, belowRef{line: r.Line, pc: r.PC, core: r.core})
		}
	})
	l3s := l3.Stats()
	c.num, c.den = l3s.Hits, l3s.Accesses()
	st.l3.add(c)
	st.below += len(below)

	var readHits []bool // Alloy's outcome for each below-L3 read, for the predictors
	for _, name := range dramcache.Names() {
		hits, c, err := replayOrg(name, cfg.ScaledCacheBytes(), cfg.Stacked, below, spans, root)
		if err != nil {
			return err
		}
		c.den = uint64(len(below))
		for _, hit := range hits {
			if hit {
				c.num++
			}
		}
		addTo(st.orgs, name, c)
		if name == string(core.DesignAlloy) {
			for i, b := range below {
				if !b.write {
					readHits = append(readHits, hits[i])
				}
			}
		}
	}
	if readHits == nil {
		return fmt.Errorf("dramcache.Names() has no %q organization to train predictors on", core.DesignAlloy)
	}

	reads := make([]belowRef, 0, len(readHits))
	for _, b := range below {
		if !b.write {
			reads = append(reads, b)
		}
	}
	for _, kind := range predictorKinds {
		c, err := replayPredictor(kind, cfg.Cores, reads, readHits, spans, root)
		if err != nil {
			return err
		}
		addTo(st.preds, string(kind), c)
	}

	for _, dev := range []struct {
		name string
		cfg  dram.Config
		stat *layerStat
	}{{"offchip", cfg.OffChip, &st.offchip}, {"stacked", cfg.Stacked, &st.stacked}} {
		d, err := dram.New(dev.cfg)
		if err != nil {
			return err
		}
		var r dram.Result
		c := timed(spans, "dram."+dev.name+".AccessLineInto", root, len(below), func() {
			now := sim.Ticks(0)
			for _, b := range below {
				now += arrival
				d.AccessLineInto(now, b.line, b.write, &r)
			}
		})
		s := d.Stats()
		c.num, c.den = s.RowHits, s.RowHits+s.RowMisses+s.RowConflict
		dev.stat.add(c)
	}
	return nil
}

// replayOrg pushes the below-L3 stream through a fresh organization on
// its own stacked DRAM, filling each allocating read miss, and returns
// each request's hit outcome.
func replayOrg(name string, capacity uint64, stackedCfg dram.Config, below []belowRef, spans *spanLog, parent int) ([]bool, layerStat, error) {
	stacked, err := dram.New(stackedCfg)
	if err != nil {
		return nil, layerStat{}, err
	}
	org, err := dramcache.Build(name, dramcache.Params{
		CapacityBytes: capacity,
		Stacked:       stacked,
		Seed:          dramcache.SeedFor(name, ""),
	})
	if err != nil {
		return nil, layerStat{}, err
	}
	hits := make([]bool, len(below))
	var res dramcache.AccessResult
	c := timed(spans, "dramcache."+name+".AccessInto", parent, len(below), func() {
		now := sim.Ticks(0)
		for i, b := range below {
			now += arrival
			org.AccessInto(now, b.line, b.write, &res)
			hits[i] = res.Hit
			if !res.Hit && res.Allocated {
				org.Fill(res.TagKnown+fillDelay, b.line)
			}
		}
	})
	return hits, c, nil
}

// replayPredictor trains a fresh predictor on the below-L3 reads with
// Alloy's outcomes, timing Predict+Update per read. The oracle kinds
// (perfect, missmap) read contents through a function that reports the
// recorded outcome, so their timing excludes the organization's tag
// lookup, which replayOrg already charges.
func replayPredictor(kind core.PredictorKind, cores int, reads []belowRef, hits []bool, spans *spanLog, parent int) (layerStat, error) {
	idx := 0
	contains := func(memaddr.Line) bool { return hits[idx] }
	var p predictor.Predictor
	switch kind {
	case core.PredSAM:
		p = predictor.SAM{}
	case core.PredPAM:
		p = predictor.PAM{}
	case core.PredMAPG:
		p = predictor.NewMAPG(cores)
	case core.PredMAPI:
		p = predictor.NewMAPI(cores)
	case core.PredMissMap:
		p = predictor.MissMap{Contains: contains}
	case core.PredPerfect:
		p = predictor.Perfect{Contains: contains}
	default:
		return layerStat{}, fmt.Errorf("no replay for predictor %q", kind)
	}
	preds := make([]bool, len(reads))
	c := timed(spans, "predictor."+string(kind)+".Predict+Update", parent, len(reads), func() {
		for idx = range reads {
			r := &reads[idx]
			preds[idx], _ = p.Predict(int(r.core), r.pc, r.line)
			p.Update(int(r.core), r.pc, r.line, hits[idx])
		}
	})
	var acc predictor.Accuracy
	for i, hit := range hits {
		acc.Record(preds[i], hit)
	}
	c.num, c.den = acc.MemPredMem+acc.CachePredCache, acc.Total()
	return c, nil
}
