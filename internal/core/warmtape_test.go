package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"alloysim/internal/policy"
)

// tapeConfig is a small config whose warm-up fills the L3 and evicts
// dirty lines from it, so the tape's victim path is exercised.
func tapeConfig(d Design, l3Policy string) Config {
	cfg := DefaultConfig("mcf_r")
	cfg.Design = d
	cfg.L3Policy = l3Policy
	cfg.Cores = 2
	cfg.WarmupRefs = 6_000
	cfg.InstructionsPerCore = 8_000
	cfg.GapScale = 2
	return cfg
}

func recordTape(t *testing.T, cfg Config) *WarmTape {
	t.Helper()
	tape, err := RecordWarm(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tape
}

func runRestored(t *testing.T, cfg Config, tape *WarmTape) Result {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreWarm(tape); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWarmTapeMatchesLiveWarm is the exactness gate of the warm tape: a
// System restored from a tape produces the very Result of one that warmed
// live, for every design (none included) under every L3 policy.
func TestWarmTapeMatchesLiveWarm(t *testing.T) {
	withVictims := 0
	for _, pol := range policy.Known() {
		tape := recordTape(t, tapeConfig(DesignNone, pol))
		if len(tape.victims) > 0 {
			withVictims++
		}
		for _, d := range Designs() {
			cfg := tapeConfig(d, pol)
			live := runOne(t, cfg)
			restored := runRestored(t, cfg, tape)
			if !reflect.DeepEqual(live, restored) {
				t.Errorf("l3 %s, %s: restored result differs from live warm-up:\nlive     %+v\nrestored %+v", pol, d, live, restored)
			}
		}
	}
	// The insertion-at-distant policies (bip, brrip, ship) evict few or
	// no dirty lines this early; the others must cover the victim path.
	if withVictims < 5 {
		t.Fatalf("only %d of %d L3 policies recorded dirty victims", withVictims, len(policy.Known()))
	}
}

// TestWarmTapeRecordsEveryOutcome checks the tape's bookkeeping: one op
// per L3 reference, one victim per victim op, and all three ops present.
func TestWarmTapeRecordsEveryOutcome(t *testing.T) {
	cfg := tapeConfig(DesignAlloy, "")
	tape := recordTape(t, cfg)
	if want := int(cfg.WarmupRefs) * cfg.Cores; tape.n != want {
		t.Fatalf("tape holds %d references, want %d", tape.n, want)
	}
	var counts [4]int
	r := tapeReader{t: tape}
	for r.i < tape.n {
		op, _ := r.next()
		counts[op]++
	}
	if counts[warmNone] == 0 || counts[warmAccess] == 0 || counts[warmVictimAccess] == 0 {
		t.Fatalf("op counts %v: want every op present", counts[:3])
	}
	if counts[3] != 0 {
		t.Fatalf("%d references carry the unused op 3", counts[3])
	}
	if r.v != len(tape.victims) {
		t.Fatalf("%d victim ops for %d victims", r.v, len(tape.victims))
	}
}

// TestRestoreWarmRejectsForeignTape: a tape restores only the warm-up it
// was recorded from.
func TestRestoreWarmRejectsForeignTape(t *testing.T) {
	tape := recordTape(t, tapeConfig(DesignNone, ""))
	for _, m := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"workload", func(c *Config) { c.Workload = "lbm_r" }},
		{"seed", func(c *Config) { c.Seed = 2 }},
		{"warmup", func(c *Config) { c.WarmupRefs++ }},
		{"l3policy", func(c *Config) { c.L3Policy = "lru" }},
		{"l2", func(c *Config) { c.L2Bytes = 256 << 10 }},
	} {
		cfg := tapeConfig(DesignAlloy, "")
		m.mutate(&cfg)
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RestoreWarm(tape); err == nil {
			t.Errorf("%s: RestoreWarm accepted a tape recorded for another warm-up", m.name)
		}
	}
	// Spellings of the same warm-up share a key.
	cfg := tapeConfig(DesignAlloy, "")
	cfg.L3Policy, cfg.GapScale = DefaultL3Policy, 2
	cfg.CPU.MLP, cfg.WriteBufferEntries, cfg.DRAMCacheBytes = 8, 16, 64<<20
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreWarm(tape); err != nil {
		t.Fatalf("RestoreWarm rejected a config with the same warm-up: %v", err)
	}
}

// TestWarmRestoreAllocationFree guards the restore loop: it reads the
// tape and drives the organization, and must allocate nothing per
// reference. A restored run at 2k and at 8k warm-up references per core
// may differ by a small constant only.
func TestWarmRestoreAllocationFree(t *testing.T) {
	const slack = 16
	allocs := func(warm uint64) uint64 {
		cfg := tapeConfig(DesignAlloy, "")
		cfg.WarmupRefs = warm
		tape := recordTape(t, cfg)
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RestoreWarm(tape); err != nil {
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
	short, long := allocs(2_000), allocs(8_000)
	if long > short+slack {
		t.Errorf("restored runs allocate per warm-up reference: %d at 2k refs/core, %d at 8k (limit +%d)", short, long, slack)
	}
}
