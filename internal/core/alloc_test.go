package core

import (
	"context"
	"runtime"
	"testing"
)

// runAllocs builds cfg and returns the heap allocations RunContext makes,
// construction excluded.
func runAllocs(t *testing.T, cfg Config) uint64 {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = s.RunContext(context.Background())
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	return m1.Mallocs - m0.Mallocs
}

// TestDemandPathAllocationFree guards the zero-allocation contract of the
// path below the L3: every L3 miss, L3 writeback and warm-up reference
// crosses it, so one allocation per access there grows a run's allocation
// count with its length. The test runs each design at N and 4N
// instructions per core and requires the two counts to differ by at most
// a small constant (pools and buffers reaching their high-water marks),
// where a per-access allocation would add thousands.
func TestDemandPathAllocationFree(t *testing.T) {
	const (
		n     = 10_000
		slack = 16
	)
	type variant struct {
		design Design
		pred   PredictorKind
	}
	var variants []variant
	for _, d := range Designs() {
		variants = append(variants, variant{design: d})
	}
	// Predictor-bearing pairings beyond the per-design defaults (which
	// already cover MAP-I, MissMap, Perfect and SAM).
	variants = append(variants,
		variant{DesignAlloy, PredPAM},
		variant{DesignAlloy, PredMAPG},
	)
	for _, v := range variants {
		name := string(v.design)
		if v.pred != PredDefault {
			name += "/" + string(v.pred)
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig("mcf_r")
			cfg.Design, cfg.Predictor = v.design, v.pred
			cfg.Cores = 2
			cfg.WarmupRefs = 2_000
			cfg.InstructionsPerCore = n
			short := runAllocs(t, cfg)
			cfg.InstructionsPerCore = 4 * n
			long := runAllocs(t, cfg)
			if long > short+slack {
				t.Errorf("RunContext allocations grow with run length: %d at %d instr/core, %d at %d (limit +%d)",
					short, n, long, 4*n, slack)
			}
		})
	}
}
