package dram

import (
	"testing"

	"alloysim/internal/memaddr"
)

// BenchmarkDRAMAccess measures one line access to each device model: the
// off-chip DDR memory and the stacked DRAM behind the DRAM cache.
// Requests arrive every 20 cycles over a footprint wide enough to mix row
// hits, misses and conflicts, one in four a write. Steady state must be
// 0 allocs/op.
func BenchmarkDRAMAccess(b *testing.B) {
	for _, dev := range []struct {
		name string
		cfg  Config
	}{{"offchip", OffChipConfig()}, {"stacked", StackedConfig()}} {
		b.Run(dev.name, func(b *testing.B) {
			d, err := New(dev.cfg)
			if err != nil {
				b.Fatal(err)
			}
			const n = 1 << 14
			lines := make([]memaddr.Line, n)
			x := uint64(0x9e3779b97f4a7c15)
			for i := range lines {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				lines[i] = memaddr.Line((x >> 8) % (1 << 20))
			}
			var r Result
			var now Cycle
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += 20
				d.AccessLineInto(now, lines[i&(n-1)], i&3 == 0, &r)
			}
		})
	}
}
