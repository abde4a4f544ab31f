package dramcache

import (
	"testing"

	"alloysim/internal/dram"
	"alloysim/internal/trace"
)

// BenchmarkOrg measures one demand access to each registered organization
// at the default 1/64-scale capacity (256 MB / 64), driven by the mcf_r
// reference stream: reads and writes arrive every 20 cycles, and every
// allocating read miss is filled 200 cycles after its tag resolves, as
// the memory response would. The result is written into a scratch value
// declared once, outside the timed loop (AccessInto's caller contract).
// Steady state must be 0 allocs/op.
func BenchmarkOrg(b *testing.B) {
	prof, ok := trace.ByName("mcf_r")
	if !ok {
		b.Fatal("no mcf_r profile")
	}
	refs := trace.Capture(prof.MustBuild(1, 64, 0), 1<<16)
	mask := len(refs) - 1
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			org, err := Build(name, Params{
				CapacityBytes: (256 << 20) / 64,
				Stacked:       dram.MustNew(dram.StackedConfig()),
				Seed:          SeedFor(name, ""),
			})
			if err != nil {
				b.Fatal(err)
			}
			var res AccessResult
			var now Cycle
			access := func(r trace.Ref) {
				now += 20
				org.AccessInto(now, r.Line, r.Write, &res)
				if !res.Hit && res.Allocated {
					org.Fill(res.TagKnown+200, r.Line)
				}
			}
			for _, r := range refs { // warm contents before timing
				access(r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				access(refs[i&mask])
			}
		})
	}
}

// BenchmarkOrgWarm measures one warm-up reference to each registered
// organization through WarmAccess, its contents-only path, on the same
// mcf_r stream and capacity as BenchmarkOrg. The stream runs through
// once before timing, so the timed loop sees warm contents.
// Steady state must be 0 allocs/op.
func BenchmarkOrgWarm(b *testing.B) {
	prof, ok := trace.ByName("mcf_r")
	if !ok {
		b.Fatal("no mcf_r profile")
	}
	refs := trace.Capture(prof.MustBuild(1, 64, 0), 1<<16)
	mask := len(refs) - 1
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			org, err := Build(name, Params{
				CapacityBytes: (256 << 20) / 64,
				Stacked:       dram.MustNew(dram.StackedConfig()),
				Seed:          SeedFor(name, ""),
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range refs {
				org.WarmAccess(r.Line, r.Write)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := &refs[i&mask]
				org.WarmAccess(r.Line, r.Write)
			}
		})
	}
}
