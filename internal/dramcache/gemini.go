package dramcache

import (
	"fmt"

	"alloysim/internal/cache"
	"alloysim/internal/dram"
	"alloysim/internal/invariants"
	"alloysim/internal/memaddr"
	"alloysim/internal/obs"
	"alloysim/internal/stats"
)

// geminiSteerBits sizes the steering predictor: one 2-bit counter per
// hashed line, 4096 entries.
const geminiSteerBits = 12

// geminiSteerMax saturates the steering counters (values 0..3; >= 2 means
// the line prefers the set-associative region).
const geminiSteerMax = 3

// Gemini is a hybrid organization: three quarters of the stacked rows form
// a direct-mapped latency region using Alloy's TAD layout (tag fused with
// data, one burst, no serialization), and the remaining quarter forms a
// set-associative region using the Loh-Hill layout (29 ways per row behind
// three tag lines) for conflict-prone lines. A per-line steering predictor
// — 2-bit saturating counters trained by hits and by direct-mapped
// conflict evictions — decides which region to probe first and where
// misses install. Lines that thrash the direct-mapped region migrate to
// associativity; everything else keeps Alloy's latency.
type Gemini struct {
	base
	dm          *cache.Cache // direct-mapped region (TAD layout)
	sa          *cache.Cache // set-associative region (Loh-Hill layout)
	dmRows      uint64
	dmBurst     Cycle
	steer       []uint8
	saMisrouted stats.Counter // accesses that found the line in the unpredicted region
	name        string

	// inflight counts, per line, installs whose Fill has not landed yet.
	// Kept only under -tags invariants, where Fill checks against it.
	inflight map[memaddr.Line]int
}

// GeminiOption configures a Gemini cache.
type GeminiOption func(*geminiParams)

type geminiParams struct {
	policy string
	seed   uint64
}

// GeminiWithPolicy selects the set-associative region's replacement policy
// ("srrip" default; any policy.Known name).
func GeminiWithPolicy(policy string) GeminiOption { return func(p *geminiParams) { p.policy = policy } }

// GeminiWithSeed seeds stochastic replacement in the set-associative
// region; 0 keeps the legacy fixed seed.
func GeminiWithSeed(seed uint64) GeminiOption { return func(p *geminiParams) { p.seed = seed } }

// NewGemini builds a Gemini cache of the given capacity. The capacity must
// span at least two rows — one per region.
func NewGemini(capacityBytes uint64, stacked *dram.DRAM, opts ...GeminiOption) (*Gemini, error) {
	p := geminiParams{policy: "srrip"}
	for _, o := range opts {
		o(&p)
	}
	rows := capacityBytes / uint64(stacked.Config().RowBytes)
	if rows < 2 {
		return nil, fmt.Errorf("dramcache: Gemini needs at least two rows (one per region), capacity %d holds %d", capacityBytes, rows)
	}
	dmRows := rows * 3 / 4
	if dmRows == 0 {
		dmRows = 1
	}
	saRows := rows - dmRows
	dm, err := cache.New(cache.Config{Sets: int(dmRows) * AlloyTADsPerRow, Assoc: 1, Policy: "lru"})
	if err != nil {
		return nil, err
	}
	sa, err := cache.New(cache.Config{Sets: int(saRows), Assoc: LHDataLinesPerRow, Policy: p.policy, Seed: p.seed})
	if err != nil {
		return nil, err
	}
	g := &Gemini{
		dm:      dm,
		sa:      sa,
		dmRows:  dmRows,
		dmBurst: AlloyBurst,
		steer:   make([]uint8, 1<<geminiSteerBits),
		name:    "Gemini",
	}
	if p.policy != "srrip" {
		g.name = fmt.Sprintf("Gemini (%s)", p.policy)
	}
	g.tags = dm // base fallback; all tag-touching methods are overridden
	g.stacked = stacked
	if invariants.Enabled {
		g.inflight = make(map[memaddr.Line]int)
	}
	return g, nil
}

// Name implements Organization.
func (g *Gemini) Name() string { return g.name }

// CapacityBytes implements Organization.
func (g *Gemini) CapacityBytes() uint64 {
	return uint64(g.dm.Config().Lines()+g.sa.Config().Lines()) * memaddr.LineSizeBytes
}

//alloyvet:hotpath
func (g *Gemini) dmRowOf(set int) uint64 { return uint64(set / AlloyTADsPerRow) }

// saRowOf maps a set-associative set to its row, after the direct-mapped
// region's rows.
//
//alloyvet:hotpath
func (g *Gemini) saRowOf(set int) uint64 { return g.dmRows + uint64(set) }

//alloyvet:hotpath
func (g *Gemini) steerIndex(line memaddr.Line) uint64 {
	return memaddr.FoldXOR(uint64(line), geminiSteerBits)
}

//alloyvet:hotpath
func (g *Gemini) trainToward(line memaddr.Line, sa bool) {
	idx := g.steerIndex(line)
	if sa {
		if g.steer[idx] < geminiSteerMax {
			g.steer[idx]++
		}
	} else if g.steer[idx] > 0 {
		g.steer[idx]--
	}
}

// probeDM models the direct-mapped region's TAD stream starting at t:
// tag and data arrive together, outcome known one tag-check later.
//
//alloyvet:hotpath
func (g *Gemini) probeDM(t Cycle, line memaddr.Line, res *dram.Result) (tagKnown Cycle) {
	g.stacked.AccessRowInto(t, g.dmRowOf(g.dm.SetOf(line)), g.dmBurst, false, res)
	return res.Done + TagCheckCycles
}

// probeSA models the set-associative region's tag-line read starting at t
// (three lines, as in the Loh-Hill layout).
//
//alloyvet:hotpath
func (g *Gemini) probeSA(t Cycle, line memaddr.Line, res *dram.Result) (tagKnown Cycle) {
	burst := LHTagLines * g.stacked.Config().BurstLine
	g.stacked.AccessRowInto(t, g.saRowOf(g.sa.SetOf(line)), burst, false, res)
	return res.Done + TagCheckCycles
}

// AccessInto implements Organization. The steering predictor picks which
// region to probe first; a wrong guess serializes the other region's probe
// behind the first tag check. Misses install in the region the predictor
// currently favors for the line.
//
//alloyvet:hotpath
func (g *Gemini) AccessInto(now Cycle, line memaddr.Line, write bool, r *AccessResult) {
	inDM := g.dm.Contains(line)
	inSA := g.sa.Contains(line)
	if invariants.Enabled && inDM && inSA {
		invariants.Failf("dramcache: Gemini line %d resident in both regions", line)
	}
	saFirst := g.steer[g.steerIndex(line)] >= 2

	*r = AccessResult{}
	r.Probed = true

	// First probe: the predicted region.
	var tagKnown Cycle
	if saFirst {
		tagKnown = g.probeSA(now, line, &r.First)
	} else {
		tagKnown = g.probeDM(now, line, &r.First)
	}
	r.RowHit = r.First.RowHit
	inFirst := (saFirst && inSA) || (!saFirst && inDM)
	hitSA := inSA

	if !inFirst && (inDM || inSA) {
		// Predicted the wrong region: the other region's probe starts only
		// once the first tag check comes back empty.
		g.saMisrouted.Inc()
		var second dram.Result
		if saFirst {
			tagKnown = g.probeDM(tagKnown, line, &second)
			// The DM probe's TAD stream is what carries the data (and the
			// row-buffer outcome) for this hit; the SA tag lines held
			// nothing. Thread it into First so hitIn's read path consumes
			// the misrouted burst, not the first probe's.
			r.First = second
			r.RowHit = second.RowHit
		} else {
			tagKnown = g.probeSA(tagKnown, line, &second)
		}
	}
	r.TagKnown = tagKnown

	if inDM || inSA {
		g.hitIn(tagKnown, line, write, hitSA, r)
		g.trainToward(line, hitSA)
		g.observe(r, now)
		return
	}

	// Miss in the predicted region; the other region's tags are checked in
	// the shadow of the miss handling (its probe bandwidth is charged).
	var second dram.Result
	if saFirst {
		tagKnown = g.probeDM(tagKnown, line, &second)
	} else {
		tagKnown = g.probeSA(tagKnown, line, &second)
	}
	r.TagKnown = tagKnown

	if write {
		g.missContents(line, true, saFirst)
		g.observe(r, now)
		return
	}
	if invariants.Enabled {
		g.inflight[line]++
	}
	r.Victim, r.Allocated = g.missContents(line, false, saFirst), true
	g.observe(r, now)
}

// WarmAccess implements Organization: the region lookups, the hit's
// replacement update and steering training, or the miss's install in the
// steered region, in AccessInto's order. It reserves no in-flight fill:
// warm-up never calls Fill.
//
//alloyvet:hotpath
func (g *Gemini) WarmAccess(line memaddr.Line, write bool) {
	inDM := g.dm.Contains(line)
	inSA := g.sa.Contains(line)
	if invariants.Enabled && inDM && inSA {
		invariants.Failf("dramcache: Gemini line %d resident in both regions", line)
	}
	if inDM || inSA {
		if inSA {
			g.sa.Probe(line, write)
		} else {
			g.dm.Probe(line, write)
		}
		g.trainToward(line, inSA)
		return
	}
	g.missContents(line, write, g.steer[g.steerIndex(line)] >= 2)
}

// missContents applies a miss to the region the steering predictor
// favors. A write miss is forwarded to memory and only counted against
// that region. A read miss installs the line there and returns the
// victim; a direct-mapped conflict victim is steered toward
// associativity for next time.
//
//alloyvet:hotpath
func (g *Gemini) missContents(line memaddr.Line, write, saFirst bool) cache.Eviction {
	if write {
		if saFirst {
			g.sa.Probe(line, true)
		} else {
			g.dm.Probe(line, true)
		}
		return cache.Eviction{}
	}
	if saFirst {
		_, ev := g.sa.Access(line, false)
		if invariants.Enabled && !g.sa.Contains(line) {
			invariants.Failf("dramcache: Gemini SA install of line %d did not take", line)
		}
		return ev
	}
	_, ev := g.dm.Access(line, false)
	if invariants.Enabled && !g.dm.Contains(line) {
		invariants.Failf("dramcache: Gemini DM install of line %d did not take", line)
	}
	if ev.Valid {
		g.trainToward(ev.Line, true)
	}
	return ev
}

// hitIn models the data movement of a hit in the owning region, starting
// from the cycle its tag check resolved.
//
//alloyvet:hotpath
func (g *Gemini) hitIn(tagKnown Cycle, line memaddr.Line, write, hitSA bool, r *AccessResult) {
	cfg := g.stacked.Config()
	var data dram.Result
	if hitSA {
		g.sa.Probe(line, write)
		// Compound scheduling keeps the row open for the data column
		// access, then a one-beat replacement-state update.
		g.stacked.AccessRowInto(tagKnown, g.saRowOf(g.sa.SetOf(line)), cfg.BurstLine, write, &data)
		var upd dram.Result
		g.stacked.AccessRowInto(data.Done, g.saRowOf(g.sa.SetOf(line)), 1, true, &upd)
		r.Hit, r.DataReady = true, data.Done
		return
	}
	g.dm.Probe(line, write)
	if write {
		// Alloy-style: write the updated TAD back (row open).
		g.stacked.AccessRowInto(tagKnown, g.dmRowOf(g.dm.SetOf(line)), cfg.BurstLine, true, &data)
		r.Hit, r.DataReady = true, data.Done
		return
	}
	// Read hit: the TAD stream already carried the data.
	r.Hit, r.DataReady = true, r.First.Done
}

// Fill implements Organization: the install traffic matches the region the
// missing Access reserved the frame in — one TAD burst for the
// direct-mapped region, tag read plus data-and-tag write for the
// set-associative region. A later miss to the same set may evict the
// reserved frame while the fill is in flight; such a fill, whichever
// region reserved it, is charged as a direct-mapped install.
func (g *Gemini) Fill(now Cycle, line memaddr.Line) FillResult {
	cfg := g.stacked.Config()
	if invariants.Enabled {
		if g.inflight[line] == 0 {
			invariants.Failf("dramcache: Gemini fill of line %d that no miss reserved", line)
		}
		if g.inflight[line]--; g.inflight[line] == 0 {
			delete(g.inflight, line)
		}
	}
	if g.sa.Contains(line) {
		row := g.saRowOf(g.sa.SetOf(line))
		tagRead := g.stacked.AccessRow(now, row, LHTagLines*cfg.BurstLine, false)
		write := g.stacked.AccessRow(tagRead.Done+TagCheckCycles, row, cfg.BurstLine+1, true)
		return FillResult{Done: write.Done}
	}
	res := g.stacked.AccessRow(now, g.dmRowOf(g.dm.SetOf(line)), g.dmBurst, true)
	return FillResult{Done: res.Done}
}

// Contains implements Organization across both regions.
func (g *Gemini) Contains(line memaddr.Line) bool {
	return g.dm.Contains(line) || g.sa.Contains(line)
}

// TagStats implements Organization: the two regions' counters summed.
func (g *Gemini) TagStats() cache.Stats {
	d, s := g.dm.Stats(), g.sa.Stats()
	return cache.Stats{
		Hits:        d.Hits + s.Hits,
		Misses:      d.Misses + s.Misses,
		Writebacks:  d.Writebacks + s.Writebacks,
		Evictions:   d.Evictions + s.Evictions,
		WriteHits:   d.WriteHits + s.WriteHits,
		WriteMisses: d.WriteMisses + s.WriteMisses,
	}
}

// ResetStats implements Organization.
func (g *Gemini) ResetStats() {
	g.dm.ResetStats()
	g.sa.ResetStats()
	g.hitLat = stats.Mean{}
	g.rowHits = stats.Counter{}
	g.accs = stats.Counter{}
	g.saMisrouted = stats.Counter{}
}

// RegisterMetrics implements Organization: per-region tag counters plus
// the organization-level statistics.
func (g *Gemini) RegisterMetrics(reg *obs.Registry, prefix string) {
	g.dm.RegisterMetrics(reg, prefix+"_dm_tags")
	g.sa.RegisterMetrics(reg, prefix+"_sa_tags")
	reg.RegisterCounterFunc(prefix+"_accesses_total", "demand accesses serviced", func() uint64 { return g.accs.Value() })
	reg.RegisterCounterFunc(prefix+"_row_buffer_hits_total", "demand accesses whose first DRAM access hit an open row", func() uint64 { return g.rowHits.Value() })
	reg.RegisterCounterFunc(prefix+"_steer_misroutes_total", "hits found in the region the steering predictor did not probe first", func() uint64 { return g.saMisrouted.Value() })
	reg.RegisterGaugeFunc(prefix+"_row_buffer_hit_rate", "row-buffer hit fraction of demand accesses", func() float64 { return g.RowBufferHitRate() })
	reg.RegisterGaugeFunc(prefix+"_hit_latency_mean_cycles", "mean cache-internal hit latency", func() float64 { return g.hitLat.Value() })
}

// RegisterTimeSeries implements Organization.
func (g *Gemini) RegisterTimeSeries(sink obs.ColumnSink, prefix string) {
	g.dm.RegisterTimeSeries(sink, prefix+"_dm_tags")
	g.sa.RegisterTimeSeries(sink, prefix+"_sa_tags")
	sink.AddColumn(prefix+"_accesses_total", func() uint64 { return g.accs.Value() })
	sink.AddColumn(prefix+"_row_buffer_hits_total", func() uint64 { return g.rowHits.Value() })
	sink.AddColumn(prefix+"_steer_misroutes_total", func() uint64 { return g.saMisrouted.Value() })
}
