package trace

import "testing"

// BenchmarkTraceGen measures one synthetic reference: the first layer a
// demand access crosses. Like the rest of the per-access path it must
// stay at 0 allocs/op (CI's benchmark guard checks it).
func BenchmarkTraceGen(b *testing.B) {
	prof, ok := ByName("mcf_r")
	if !ok {
		b.Fatal("no mcf_r profile")
	}
	g := prof.MustBuild(1, 64, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRef = g.Next()
	}
}

// benchRef keeps the generator call live.
var benchRef Ref
