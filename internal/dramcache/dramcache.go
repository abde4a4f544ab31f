// Package dramcache implements the four DRAM-cache organizations the paper
// compares:
//
//   - SRAMTag: tags in an impractical SRAM array (24-cycle tag
//     serialization), data in stacked DRAM, 32-way or direct-mapped.
//   - LHCache: the Loh-Hill design — tags co-located with data in each
//     DRAM row (three tag lines + 29 data ways), compound access
//     scheduling, LRU/DIP or random replacement, 29-way or direct-mapped.
//   - Alloy: the paper's contribution — tag and data fused into one 72 B
//     TAD streamed in a single burst of five (no tag serialization).
//   - IdealLO: the latency-optimized upper bound — transfers exactly one
//     line per hit with no latency overheads.
//
// Each organization layers its access-flow timing over a contents model
// (internal/cache) and charges all its DRAM traffic — tag reads, data
// bursts, replacement updates, fills — to the shared stacked-DRAM device
// (internal/dram), so bandwidth contention between designs' flows emerges
// structurally, exactly the effect Table 4 quantifies. WarmAccess runs the
// contents model alone, for warm-up.
package dramcache

import (
	"alloysim/internal/cache"
	"alloysim/internal/dram"
	"alloysim/internal/memaddr"
	"alloysim/internal/obs"
	"alloysim/internal/stats"
)

// Cycle aliases the simulator cycle type.
type Cycle = dram.Cycle

// TagCheckCycles is the latency of comparing a fetched tag (one cycle, as
// in §2.4 of the paper).
const TagCheckCycles = 1

// SRAMTagLatency is the SRAM tag-store lookup latency (Table 2).
const SRAMTagLatency = 24

// AccessResult describes the timing and outcome of a demand access.
type AccessResult struct {
	Hit bool
	// TagKnown is the cycle at which the hit/miss outcome is resolved.
	// Under the serial access model a miss may dispatch to memory only at
	// this point.
	TagKnown Cycle
	// DataReady is the cycle the data line is available (hits only).
	DataReady Cycle
	// Victim is the line displaced when a read miss allocated.
	Victim cache.Eviction
	// Allocated reports whether a miss reserved a frame (read misses do;
	// write misses are forwarded to memory without allocation).
	Allocated bool
	// RowHit reports whether the first DRAM access hit an open row.
	RowHit bool
	// First is the timing of the first stacked-DRAM access the
	// organization issued for this request (the tag-line read for
	// LH-Cache, the TAD stream for Alloy, the data read for SRAM-Tag and
	// IDEAL-LO hits); Probed reports whether any stacked access was
	// issued at all (SRAM-Tag misses resolve purely in the SRAM array).
	// The obs tracer decomposes hit latency into queue/bank/bus/burst
	// segments from these timestamps.
	First  dram.Result
	Probed bool
}

// FillResult describes the completion of fill traffic.
type FillResult struct {
	Done Cycle
}

// Organization is a DRAM cache design.
type Organization interface {
	// Name identifies the design in reports, e.g. "Alloy (1-way)".
	Name() string
	// AccessInto performs a demand access arriving at cycle now and
	// writes its result into r (which it resets first). AccessResult is
	// large enough that returning it by value would cost a measurable
	// copy per demand access.
	//
	// Caller contract: r must point to storage that outlives the call,
	// such as a struct field. The compiler cannot see through an
	// interface call, so a local passed as &res escapes and costs one
	// heap allocation per access (core.System keeps its scratch results
	// as fields for this reason).
	AccessInto(now Cycle, line memaddr.Line, write bool, r *AccessResult)
	// WarmAccess is the contents half of AccessInto: the same tag-store,
	// replacement, filter and steering updates in the same order, with no
	// stacked-DRAM traffic and no AccessResult. It records no access,
	// row-locality or hit-latency statistics; the tag and filter counters
	// it moves are cleared by ResetStats. Warm-up and validation priming
	// use it: they keep contents and discard timing, and no design's
	// contents decision reads timing.
	WarmAccess(line memaddr.Line, write bool)
	// Fill models the DRAM traffic of installing a line after its memory
	// response arrives at cycle now. Contents were already reserved by the
	// missing AccessInto; Fill only charges the write traffic.
	Fill(now Cycle, line memaddr.Line) FillResult
	// Contains probes contents without side effects (used by the
	// idealized MissMap and the Perfect predictor).
	Contains(line memaddr.Line) bool
	// TagStats exposes hit/miss counters.
	TagStats() cache.Stats
	// CapacityBytes is the data capacity of the organization.
	CapacityBytes() uint64
	// ResetStats zeroes counters while keeping contents; separates warmup
	// from measurement.
	ResetStats()
	// RegisterMetrics exposes the organization's counters in reg under
	// the given prefix. Registration is setup-time only.
	RegisterMetrics(reg *obs.Registry, prefix string)
	// RegisterTimeSeries exposes the organization's counters as phase
	// time-series columns under the given prefix. Setup-time only.
	RegisterTimeSeries(sink obs.ColumnSink, prefix string)
}

// base carries the machinery shared by all organizations.
type base struct {
	tags    *cache.Cache
	stacked *dram.DRAM
	hitLat  stats.Mean
	rowHits stats.Counter
	accs    stats.Counter
}

func (b *base) Contains(line memaddr.Line) bool { return b.tags.Contains(line) }
func (b *base) stackedStats() dram.Stats        { return b.stacked.Stats() }

// ResetStats implements Organization.
func (b *base) ResetStats() {
	b.tags.ResetStats()
	b.hitLat = stats.Mean{}
	b.rowHits = stats.Counter{}
	b.accs = stats.Counter{}
}
func (b *base) TagStats() cache.Stats { return b.tags.Stats() }

// WarmAccess implements Organization for the designs whose contents are
// one tag store (SRAM-Tag, LH-Cache, Alloy, IDEAL-LO, TDRAM): a write
// probes (a miss does not allocate), a read accesses (a miss allocates).
//
//alloyvet:hotpath
func (b *base) WarmAccess(line memaddr.Line, write bool) {
	if write {
		b.tags.Probe(line, true)
		return
	}
	b.tags.Access(line, false)
}

// observe records the outcome of a demand access.
//
//alloyvet:hotpath
func (b *base) observe(r *AccessResult, start Cycle) {
	b.accs.Inc()
	if r.RowHit {
		b.rowHits.Inc()
	}
	if r.Hit {
		b.hitLat.Observe(float64(r.DataReady - start))
	}
}

// RowBufferHitRate returns the fraction of demand accesses whose first
// DRAM access hit an open row — the statistic behind the paper's "56% on
// average for direct-mapped vs <0.1% for set-per-row" observation (§2.7).
func (b *base) RowBufferHitRate() float64 {
	if b.accs.Value() == 0 {
		return 0
	}
	return float64(b.rowHits.Value()) / float64(b.accs.Value())
}

// RegisterMetrics implements Organization for every design that embeds
// base: the tag-store counters plus the organization-level access, row
// locality, and hit-latency statistics. The shared stacked DRAM device is
// registered once by the system, not per organization.
func (b *base) RegisterMetrics(reg *obs.Registry, prefix string) {
	b.tags.RegisterMetrics(reg, prefix+"_tags")
	reg.RegisterCounterFunc(prefix+"_accesses_total", "demand accesses serviced", func() uint64 { return b.accs.Value() })
	reg.RegisterCounterFunc(prefix+"_row_buffer_hits_total", "demand accesses whose first DRAM access hit an open row", func() uint64 { return b.rowHits.Value() })
	reg.RegisterGaugeFunc(prefix+"_row_buffer_hit_rate", "row-buffer hit fraction of demand accesses", func() float64 { return b.RowBufferHitRate() })
	reg.RegisterGaugeFunc(prefix+"_hit_latency_mean_cycles", "mean cache-internal hit latency", func() float64 { return b.hitLat.Value() })
}

// RegisterTimeSeries implements Organization for every design that embeds
// base: the tag-store counters plus the organization-level access and row
// locality counts (the hit-rate-vs-time phase figure divides the epoch
// deltas of tags hits over accesses).
func (b *base) RegisterTimeSeries(sink obs.ColumnSink, prefix string) {
	b.tags.RegisterTimeSeries(sink, prefix+"_tags")
	sink.AddColumn(prefix+"_accesses_total", func() uint64 { return b.accs.Value() })
	sink.AddColumn(prefix+"_row_buffer_hits_total", func() uint64 { return b.rowHits.Value() })
}

// RowBufferHitRater is implemented by organizations exposing row-locality
// statistics.
type RowBufferHitRater interface {
	RowBufferHitRate() float64
}
