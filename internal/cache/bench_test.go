package cache

import (
	"testing"

	"alloysim/internal/memaddr"
)

// benchLines is a reproducible line stream over a footprint four times
// the cache, with one write in four: enough reuse for hits, enough spread
// for evictions and dirty victims.
func benchLines(capLines int) (lines []memaddr.Line, writes []bool) {
	const n = 1 << 16
	lines = make([]memaddr.Line, n)
	writes = make([]bool, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range lines {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Half the stream revisits a hot eighth of the footprint.
		span := uint64(4 * capLines)
		if x&1 == 0 {
			span /= 8
		}
		lines[i] = memaddr.Line((x >> 8) % span)
		writes[i] = x&6 == 0
	}
	return lines, writes
}

// BenchmarkCacheAccess measures one lookup in the two set-associative
// tag stores a demand access can cross: the shared L3 (16-way DIP at the
// default 1/64 scale) and the LH-Cache's in-DRAM tag store (29 ways per
// 2 KB row, DIP). Steady state must be 0 allocs/op.
func BenchmarkCacheAccess(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"l3-dip-16", Config{Sets: 128, Assoc: 16, Policy: "dip"}},
		{"lh-tags-29", Config{Sets: 2048, Assoc: 29, Policy: "dip"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := New(bc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			lines, writes := benchLines(bc.cfg.Sets * bc.cfg.Assoc)
			for i := range lines {
				c.Access(lines[i], writes[i])
			}
			mask := len(lines) - 1
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & mask
				c.Access(lines[j], writes[j])
			}
		})
	}
}
