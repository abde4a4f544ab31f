package predictor

import (
	"testing"

	"alloysim/internal/memaddr"
)

// BenchmarkPredictor measures one Predict+Update pair per predictor kind,
// named as core.PredictorKind spells them. The oracle kinds read contents
// through a function of the line alone, so their timing excludes the
// organization's tag lookup. Steady state must be 0 allocs/op.
func BenchmarkPredictor(b *testing.B) {
	const cores = 8
	contains := func(l memaddr.Line) bool { return l&3 != 0 }
	for _, k := range []struct {
		kind string
		p    Predictor
	}{
		{"sam", SAM{}},
		{"pam", PAM{}},
		{"map-g", NewMAPG(cores)},
		{"map-i", NewMAPI(cores)},
		{"missmap", MissMap{Contains: contains}},
		{"perfect", Perfect{Contains: contains}},
	} {
		b.Run(k.kind, func(b *testing.B) {
			const n = 1 << 14
			pcs := make([]uint64, n)
			lines := make([]memaddr.Line, n)
			x := uint64(0x9e3779b97f4a7c15)
			for i := range pcs {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				pcs[i] = 0x400000 + (x>>40)%512*4 // a few hundred load PCs
				lines[i] = memaddr.Line((x >> 8) % (1 << 20))
			}
			p := k.p
			var correct int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & (n - 1)
				core := i % cores
				pred, _ := p.Predict(core, pcs[j], lines[j])
				hit := contains(lines[j])
				if pred == hit {
					correct++
				}
				p.Update(core, pcs[j], lines[j], hit)
			}
			b.ReportMetric(float64(correct)/float64(b.N), "accuracy")
		})
	}
}
