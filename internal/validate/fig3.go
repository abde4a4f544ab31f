package validate

import (
	"fmt"
	"io"
	"math"

	"alloysim/internal/analytic"
	"alloysim/internal/core"
	"alloysim/internal/memaddr"
	"alloysim/internal/predictor"
	"alloysim/internal/sim"
)

// The differential harness measures one access per (design, predictor,
// class) cell on a fresh System, via core.LatencyProbe. The probe line and
// its neighbor sit in the same stacked row for the row-organized designs
// (Alloy, IDEAL-LO pack 28 and 32 lines per row) and in different rows for
// the set-per-row ones (one set per row), which is exactly the distinction
// Figure 3's X-class hit latencies encode - so a single priming procedure
// serves all five organizations.
const (
	probeWorkload = "mcf_r"
	probePC       = 0x40
	// probeLine and probeNeighbor: adjacent lines, distinct cache sets.
	probeLine     = memaddr.Line(1000)
	probeNeighbor = memaddr.Line(1001)
	// measureAt is when the probe access issues. Late enough that all
	// priming-time bank/bus reservations have drained, early enough that
	// the primed rows are still open (stacked idle-close 96 cycles after
	// the cycle-36 touch, off-chip 160 after the cycle-72 open).
	measureAt = sim.Cycle(120)
)

// Fig3Row is one measured cell of the differential matrix.
type Fig3Row struct {
	Pair     Pair
	Class    Class
	Expected float64
	Measured float64
}

// Diverges reports whether the simulator disagrees with the closed form.
func (r Fig3Row) Diverges() bool { return r.Measured != r.Expected }

// Fig3Pairs returns the validated (design, predictor) combinations: the
// five Figure 3 rows under the paper's pairings, plus the perfect oracle
// and additional real predictors on every organization where the isolated
// access stays deterministic.
func Fig3Pairs() []Pair {
	return []Pair{
		{core.DesignNone, core.PredDefault},
		{core.DesignSRAMTag32, core.PredSAM},
		{core.DesignSRAMTag32, core.PredPAM},
		{core.DesignSRAMTag32, core.PredPerfect},
		{core.DesignLH, core.PredMissMap},
		{core.DesignLH, core.PredPerfect},
		{core.DesignAlloy, core.PredPAM},
		{core.DesignAlloy, core.PredMAPI},
		{core.DesignAlloy, core.PredPerfect},
		{core.DesignIdealLO, core.PredPerfect},
		{core.DesignIdealLO, core.PredPAM},
	}
}

// figurePairs maps the exact Figure 3 rows (design under its paper
// predictor pairing) to the analytic.Fig3Breakdowns row names.
func figurePairs() map[Pair]string {
	return map[Pair]string{
		{Design: core.DesignNone, Predictor: core.PredDefault}:    "Baseline (no DRAM cache)",
		{Design: core.DesignSRAMTag32, Predictor: core.PredSAM}:   "SRAM-Tag",
		{Design: core.DesignLH, Predictor: core.PredMissMap}:      "LH-Cache (MissMap)",
		{Design: core.DesignAlloy, Predictor: core.PredPAM}:       "Alloy Cache",
		{Design: core.DesignIdealLO, Predictor: core.PredPerfect}: "IDEAL-LO",
	}
}

// orgModel is the organization's contribution to an isolated access, per
// class: the data-ready latency on a hit and the tag-resolution latency
// that gates (serial model) or back-stops (parallel model) a miss.
type orgModel struct {
	hitX, hitY float64
	tagX, tagY float64
}

func (o orgModel) hit(c Class) float64 {
	if c == ClassHitX || c == ClassMissX {
		return o.hitX
	}
	return o.hitY
}

func (o orgModel) tag(c Class) float64 {
	if c == ClassHitX || c == ClassMissX {
		return o.tagX
	}
	return o.tagY
}

// orgModels derives each organization's latencies from the Figure 3
// timing constants, matching Fig3Breakdowns term for term.
func orgModels(t analytic.Timing) map[core.Design]orgModel {
	stkHit := t.StkACT + t.StkCAS + t.StkBus
	stkRowHit := t.StkCAS + t.StkBus
	lhTag := t.StkACT + t.StkCAS + 3*t.StkBus + t.TagChk
	lhHit := lhTag + t.StkCAS + t.StkBus
	tad := t.StkACT + t.StkCAS + t.TADBurst
	tadRowHit := t.StkCAS + t.TADBurst
	return map[core.Design]orgModel{
		// SRAM tags resolve before the data access; set-per-row mapping
		// means hits never see an open stacked row.
		core.DesignSRAMTag32: {
			hitX: t.SRAMTag + stkHit, hitY: t.SRAMTag + stkHit,
			tagX: t.SRAMTag, tagY: t.SRAMTag,
		},
		// LH reads the tag lines (always an activation), then the data
		// line as a guaranteed row hit.
		core.DesignLH: {
			hitX: lhHit, hitY: lhHit,
			tagX: lhTag, tagY: lhTag,
		},
		// Alloy streams one TAD; the tag check adds a cycle before the
		// outcome is known.
		core.DesignAlloy: {
			hitX: tadRowHit, hitY: tad,
			tagX: tadRowHit + t.TagChk, tagY: tad + t.TagChk,
		},
		// IDEAL-LO: free tags, data-optimized layout.
		core.DesignIdealLO: {
			hitX: stkRowHit, hitY: stkHit,
			tagX: 0, tagY: 0,
		},
	}
}

// predModel captures how a predictor shapes an isolated access: its fixed
// latency, whether it predicts "cache" on the (cold) probe miss, and
// whether it is authoritative (a predicted miss needs no tag confirmation).
func predModel(pk core.PredictorKind) (lat float64, predictsHitOnMiss, auth bool, err error) {
	switch pk {
	case core.PredSAM:
		return 0, true, false, nil
	case core.PredPAM:
		return 0, false, false, nil
	case core.PredMAPG, core.PredMAPI:
		// MAP counters start in the "predict memory" state, so the first
		// access of a fresh System predicts miss deterministically.
		return predictor.MAPLatency, false, false, nil
	case core.PredPerfect:
		return 0, false, true, nil
	case core.PredMissMap:
		return predictor.MissMapLatency, false, true, nil
	}
	return 0, false, false, fmt.Errorf("validate: no isolated-access model for predictor %q", pk)
}

// ExpectedLatency composes the closed-form isolated-access latency for one
// (design, predictor, class) cell from the Figure 3 timing constants. For
// the paper's design/predictor pairings it reproduces analytic.Fig3Breakdowns
// exactly (asserted by TestExpectedMatchesFig3Breakdowns); the composition
// additionally covers the off-pairing combinations the harness measures.
func ExpectedLatency(t analytic.Timing, p Pair, c Class) (float64, error) {
	memLat := t.MemACT + t.MemCAS + t.MemBus
	if c.isOpen() {
		memLat = t.MemCAS + t.MemBus
	}
	if p.Design == core.DesignNone {
		// The baseline has no cache and no predictor: every access is an
		// off-chip read, hit and miss classes alike.
		return memLat, nil
	}
	o, ok := orgModels(t)[p.Design]
	if !ok {
		return 0, fmt.Errorf("validate: no isolated-access model for design %q", p.Design)
	}
	lat, predictsHit, auth, err := predModel(p.Predictor)
	if err != nil {
		return 0, err
	}
	if c.isHit() {
		// Data comes from the cache regardless of the prediction (a
		// mispredicted hit only wastes an off-chip probe).
		return lat + o.hit(c), nil
	}
	if predictsHit {
		// Serial model: memory dispatch waits for the tag check.
		return lat + o.tag(c) + memLat, nil
	}
	// Parallel model: memory is probed immediately; a non-authoritative
	// predictor still waits for the tag check before the data may be used.
	wait := 0.0
	if !auth {
		wait = o.tag(c)
	}
	return lat + math.Max(memLat, wait), nil
}

// MeasureLatency builds a fresh System for the pair, primes cache contents
// and row-buffer state for the class, and measures one isolated access
// through the simulator's own read path.
func MeasureLatency(p Pair, c Class) (float64, error) {
	cfg := core.DefaultConfig(probeWorkload)
	cfg.Design = p.Design
	cfg.Predictor = p.Predictor
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return 0, fmt.Errorf("validate: %s: %w", p, err)
	}
	probe, err := sys.Probe()
	if err != nil {
		return 0, fmt.Errorf("validate: %s: %w", p, err)
	}
	if c.isHit() {
		probe.InstallLine(probeLine)
	}
	if c.isOpen() {
		// Re-reading the installed neighbor opens its stacked row: the
		// probe line's own row for the row-organized designs, an unrelated
		// one for the set-per-row designs. Then open the probe line's
		// off-chip row.
		probe.InstallLine(probeNeighbor)
		probe.TouchLine(0, probeNeighbor)
		probe.OpenMemRow(0, probeLine)
	}
	if p.Design != core.DesignNone && probe.Contains(probeLine) != c.isHit() {
		return 0, fmt.Errorf("validate: %s/%s: priming failed, Contains=%v", p, c, !c.isHit())
	}
	if probe.MemRowOpen(probeLine) != c.isOpen() {
		return 0, fmt.Errorf("validate: %s/%s: priming failed, MemRowOpen=%v", p, c, !c.isOpen())
	}
	return float64(probe.ReadBelow(measureAt, probePC, probeLine).Count()), nil
}

// Fig3Diff measures the full differential matrix and pairs each cell with
// its closed-form expectation.
func Fig3Diff() ([]Fig3Row, error) {
	t := analytic.PaperTiming()
	var rows []Fig3Row
	for _, p := range Fig3Pairs() {
		for _, c := range Classes() {
			want, err := ExpectedLatency(t, p, c)
			if err != nil {
				return nil, err
			}
			got, err := MeasureLatency(p, c)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig3Row{Pair: p, Class: c, Expected: want, Measured: got})
		}
	}
	return rows, nil
}

// WriteFig3 renders the matrix and returns the number of diverging cells.
func WriteFig3(w io.Writer, rows []Fig3Row) (diverging int, err error) {
	if _, err = fmt.Fprintf(w, "%-22s %-6s %9s %9s %6s\n", "design/predictor", "class", "analytic", "measured", "diff"); err != nil {
		return 0, err
	}
	for _, r := range rows {
		mark := ""
		if r.Diverges() {
			diverging++
			mark = "  <-- DIVERGES"
		}
		if _, err = fmt.Fprintf(w, "%-22s %-6s %9.0f %9.0f %+6.0f%s\n",
			r.Pair, r.Class, r.Expected, r.Measured, r.Measured-r.Expected, mark); err != nil {
			return diverging, err
		}
	}
	return diverging, nil
}
