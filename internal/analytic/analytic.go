// Package analytic contains the closed-form models of the paper's
// motivation section: the break-even hit-rate analysis of Figure 1, the
// isolated-access latency breakdowns of Figure 3, and the effective
// bandwidth accounting of Table 4. These need no simulation — they are the
// arithmetic the paper uses to frame the latency-versus-hit-rate trade-off.
package analytic

import (
	"fmt"
	"math"
)

// AvgLatency returns the average memory access time for a cache with the
// given hit rate and hit latency, in front of a memory of unit latency
// (the §1 model: memory = 1, cache hit = HitLatency units).
func AvgLatency(hitRate, hitLatency float64) float64 {
	return hitRate*hitLatency + (1 - hitRate)
}

// breakEvenEps bounds how close latFactor*hitLatency may come to the
// memory latency (1) before the break-even equation is treated as
// singular: within it, the optimized cache's hit latency equals memory
// latency and no hit rate trades one for the other.
const breakEvenEps = 1e-9

// BreakEvenHitRate answers Figure 1's question: an optimization multiplies
// hit latency by latFactor; what hit rate must it reach so that average
// latency equals the base cache's at baseHitRate? Returns the required hit
// rate and whether it is achievable (a finite value in [0, 1]).
func BreakEvenHitRate(baseHitRate, hitLatency, latFactor float64) (float64, bool) {
	baseAvg := AvgLatency(baseHitRate, hitLatency)
	// Solve h*f*L + (1-h) = baseAvg for h. A denominator within eps of
	// zero means hits cost the same as memory: the division would yield
	// +/-Inf (or NaN at exactly zero), not an achievable hit rate.
	denom := latFactor*hitLatency - 1
	if math.Abs(denom) < breakEvenEps {
		return 0, false
	}
	h := (baseAvg - 1) / denom
	if math.IsNaN(h) || math.IsInf(h, 0) {
		return 0, false
	}
	return h, h <= 1 && h >= 0
}

// Timing collects the Figure 3 latency constants, in processor cycles.
type Timing struct {
	MemACT, MemCAS, MemBus       float64 // off-chip: 36, 36, 16
	StkACT, StkCAS, StkBus       float64 // stacked: 18, 18, 4
	SRAMTag, L3, MissMap, TagChk float64 // 24, 24, 24, 1
	TADBurst                     float64 // 5
}

// PaperTiming returns the Table 2 / Figure 3 constants.
func PaperTiming() Timing {
	return Timing{
		MemACT: 36, MemCAS: 36, MemBus: 16,
		StkACT: 18, StkCAS: 18, StkBus: 4,
		SRAMTag: 24, L3: 24, MissMap: 24, TagChk: 1,
		TADBurst: 5,
	}
}

// Breakdown is one Figure 3 row: the isolated latency of servicing an
// access of type X (off-chip row-buffer hit available) or type Y (row must
// be opened) for one design, split by hit and miss.
type Breakdown struct {
	Design                   string
	HitX, HitY, MissX, MissY float64
}

// Fig3Breakdowns reproduces the isolated-access latency arithmetic of
// Figure 3 for the baseline and the four designs.
//
// Conventions, exactly as in the paper's figure: type X accesses find
// their off-chip row open (memory = CAS+bus) while type Y must activate
// (ACT+CAS+bus); DRAM-cache hits in SRAM-Tag and LH-Cache never hit the
// cache's row buffer (set-per-row mapping), whereas IDEAL-LO and the Alloy
// Cache see X-type spatial locality as stacked row-buffer hits.
func Fig3Breakdowns(t Timing) []Breakdown {
	memX := t.MemCAS + t.MemBus            // 52
	memY := t.MemACT + t.MemCAS + t.MemBus // 88

	stkHit := t.StkACT + t.StkCAS + t.StkBus // 40, row closed
	stkRowHit := t.StkCAS + t.StkBus         // 22

	lhTag := t.StkACT + t.StkCAS + 3*t.StkBus + t.TagChk // 49
	lhHit := lhTag + t.StkCAS + t.StkBus                 // 71
	tad := t.StkACT + t.StkCAS + t.TADBurst              // 41
	tadRowHit := t.StkCAS + t.TADBurst                   // 23

	return []Breakdown{
		{
			Design: "Baseline (no DRAM cache)",
			HitX:   memX, HitY: memY, MissX: memX, MissY: memY,
		},
		{
			Design: "SRAM-Tag",
			HitX:   t.SRAMTag + stkHit, HitY: t.SRAMTag + stkHit,
			MissX: t.SRAMTag + memX, MissY: t.SRAMTag + memY,
		},
		{
			Design: "LH-Cache (MissMap)",
			HitX:   t.MissMap + lhHit, HitY: t.MissMap + lhHit,
			MissX: t.MissMap + memX, MissY: t.MissMap + memY,
		},
		{
			Design: "Alloy Cache",
			HitX:   tadRowHit, HitY: tad,
			MissX: memX, MissY: memY, // with memory access prediction (PAM on miss)
		},
		{
			Design: "IDEAL-LO",
			HitX:   stkRowHit, HitY: stkHit,
			MissX: memX, MissY: memY,
		},
	}
}

// Bandwidth is one Table 4 row.
type Bandwidth struct {
	Structure    string
	RawBandwidth float64 // relative to off-chip memory
	BytesPerHit  float64
	EffectiveBW  float64 // relative to off-chip memory
}

// Table4Bandwidth reproduces the effective-bandwidth accounting of
// Table 4: raw bandwidth scaled by useful bytes (64 per line) over bytes
// transferred per hit.
func Table4Bandwidth() []Bandwidth {
	rows := []struct {
		name  string
		raw   float64
		bytes float64
	}{
		{"Off-chip Memory", 1, 64},
		{"SRAM-Tag", 8, 64},
		{"LH-Cache", 8, 256 + 16}, // 3 tag lines + 1 data line + update
		{"IDEAL-LO", 8, 64},
		{"Alloy Cache", 8, 80}, // one TAD
	}
	out := make([]Bandwidth, len(rows))
	for i, r := range rows {
		out[i] = Bandwidth{
			Structure:    r.name,
			RawBandwidth: r.raw,
			BytesPerHit:  r.bytes,
			EffectiveBW:  r.raw * 64 / r.bytes,
		}
	}
	return out
}

// String renders a breakdown row.
func (b Breakdown) String() string {
	return fmt.Sprintf("%-26s hitX=%3.0f hitY=%3.0f missX=%3.0f missY=%3.0f",
		b.Design, b.HitX, b.HitY, b.MissX, b.MissY)
}
