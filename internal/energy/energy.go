// Package energy provides the DRAM energy accounting behind §5.6 of the
// paper ("Implications on Memory Power and Energy"): accessing memory in
// parallel with the cache (PAM, and mispredicted DAM accesses) increases
// memory-system energy through wasteful accesses. The model charges
// standard DDR3-class per-operation energies to the activity counters the
// DRAM device model already collects, so it adds zero timing overhead and
// can be applied to any completed run.
//
// Absolute joules are not the point (the paper reports none); the model
// exists to reproduce the paper's conclusion quantitatively: PAM roughly
// doubles memory activity and hence dynamic memory energy, while MAP-I's
// wasteful parallel probes cost only ~2% extra.
package energy

import (
	"fmt"

	"alloysim/internal/dram"
)

// PerOp holds per-operation energies in picojoules. Values are
// DDR3-1600-class estimates (Micron power calculator order of magnitude):
// one row activation+precharge pair, one column read or write of a 64 B
// line, and per-cycle background power expressed per busy bus cycle.
type PerOp struct {
	ActivatePJ float64 // ACT + PRE pair
	ReadPJ     float64 // column read, 64 B
	WritePJ    float64 // column write, 64 B
	BusCyclePJ float64 // I/O + termination per data-bus busy cycle
}

// DDR3 returns off-chip DDR3-class per-operation energies.
func DDR3() PerOp {
	return PerOp{ActivatePJ: 2200, ReadPJ: 1300, WritePJ: 1400, BusCyclePJ: 52}
}

// Stacked returns die-stacked DRAM per-operation energies: activations
// cost about the same (same mats), but I/O energy is roughly 5x lower
// because signals never leave the package.
func Stacked() PerOp {
	return PerOp{ActivatePJ: 2000, ReadPJ: 900, WritePJ: 950, BusCyclePJ: 10}
}

// Breakdown is the energy attributed to one device over a run.
type Breakdown struct {
	ActivationPJ float64
	ReadPJ       float64
	WritePJ      float64
	BusPJ        float64
}

// TotalPJ sums the components.
func (b Breakdown) TotalPJ() float64 {
	return b.ActivationPJ + b.ReadPJ + b.WritePJ + b.BusPJ
}

// TotalNJ is the total in nanojoules.
func (b Breakdown) TotalNJ() float64 { return b.TotalPJ() / 1000 }

// String renders the breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("act=%.0fpJ rd=%.0fpJ wr=%.0fpJ bus=%.0fpJ total=%.1fnJ",
		b.ActivationPJ, b.ReadPJ, b.WritePJ, b.BusPJ, b.TotalNJ())
}

// Charge converts one device's activity counters into an energy breakdown.
func Charge(s dram.Stats, p PerOp) Breakdown {
	activations := float64(s.RowMisses + s.RowConflict)
	return Breakdown{
		ActivationPJ: activations * p.ActivatePJ,
		ReadPJ:       float64(s.Reads) * p.ReadPJ,
		WritePJ:      float64(s.Writes) * p.WritePJ,
		BusPJ:        float64(s.BusBusy) * p.BusCyclePJ,
	}
}

// System is the combined memory-system energy of a run: off-chip plus
// stacked device.
type System struct {
	OffChip Breakdown
	Stacked Breakdown
}

// ChargeSystem charges both devices of a run with the default energy
// parameters.
func ChargeSystem(offChip, stacked dram.Stats) System {
	return System{
		OffChip: Charge(offChip, DDR3()),
		Stacked: Charge(stacked, Stacked()),
	}
}

// TotalNJ is the whole memory system's energy in nanojoules.
func (s System) TotalNJ() float64 { return s.OffChip.TotalNJ() + s.Stacked.TotalNJ() }
