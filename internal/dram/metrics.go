package dram

import (
	"fmt"

	"alloysim/internal/obs"
)

// RegisterMetrics exposes the device's activity counters in reg under the
// given prefix (e.g. "dram_offchip"). Registration only captures read-back
// closures over the existing stat fields — the hot path is untouched.
func (d *DRAM) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.RegisterCounterFunc(prefix+"_reads_total", "read requests serviced", func() uint64 { return d.stats.Reads })
	reg.RegisterCounterFunc(prefix+"_writes_total", "write requests drained", func() uint64 { return d.stats.Writes })
	reg.RegisterCounterFunc(prefix+"_row_hits_total", "column accesses to an already-open row", func() uint64 { return d.stats.RowHits })
	reg.RegisterCounterFunc(prefix+"_row_misses_total", "activations on a closed bank", func() uint64 { return d.stats.RowMisses })
	reg.RegisterCounterFunc(prefix+"_row_conflicts_total", "accesses that forced precharge plus activation", func() uint64 { return d.stats.RowConflict })
	reg.RegisterCounterFunc(prefix+"_refresh_stalls_total", "accesses delayed by a refresh window", func() uint64 { return d.stats.RefreshStalls })
	reg.RegisterCounterFunc(prefix+"_bus_busy_cycles_total", "cumulative data-bus busy cycles across channels", func() uint64 { return d.stats.BusBusy.Count() })
	reg.RegisterCounterFunc(prefix+"_bank_wait_cycles_total", "cumulative cycles requests waited for their bank", func() uint64 { return d.stats.TotalWait.Count() })
	reg.RegisterGaugeFunc(prefix+"_row_hit_rate", "fraction of accesses hitting an open row", func() float64 { return d.stats.RowHitRate() })
}

// RegisterTimeSeries exposes the device's activity counters as phase
// time-series columns (rates like row_hit_rate are derived by readers
// from epoch deltas, so only raw counts are registered).
func (d *DRAM) RegisterTimeSeries(sink obs.ColumnSink, prefix string) {
	sink.AddColumn(prefix+"_reads_total", func() uint64 { return d.stats.Reads })
	sink.AddColumn(prefix+"_writes_total", func() uint64 { return d.stats.Writes })
	sink.AddColumn(prefix+"_row_hits_total", func() uint64 { return d.stats.RowHits })
	sink.AddColumn(prefix+"_row_misses_total", func() uint64 { return d.stats.RowMisses })
	sink.AddColumn(prefix+"_row_conflicts_total", func() uint64 { return d.stats.RowConflict })
	sink.AddColumn(prefix+"_refresh_stalls_total", func() uint64 { return d.stats.RefreshStalls })
	sink.AddColumn(prefix+"_bus_busy_cycles_total", func() uint64 { return d.stats.BusBusy.Count() })
	sink.AddColumn(prefix+"_bank_wait_cycles_total", func() uint64 { return d.stats.TotalWait.Count() })
}

// RegisterBankTimeSeries adds one read-access column per physical bank
// (prefix_bank00_accesses_total, ...), the raw material of the per-bank
// occupancy phase figure. Registered separately from the aggregate
// columns because a device can have hundreds of banks; callers opt in
// for the device they are studying (the stacked DRAM cache).
func (d *DRAM) RegisterBankTimeSeries(sink obs.ColumnSink, prefix string) {
	for i := range d.banks {
		b := &d.banks[i]
		sink.AddColumn(fmt.Sprintf("%s_bank%02d_accesses_total", prefix, i), func() uint64 { return b.accesses })
	}
}
