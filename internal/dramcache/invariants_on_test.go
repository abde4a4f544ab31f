//go:build invariants

package dramcache

// Tests that the Alloy TAD co-residency invariant fires under -tags
// invariants: a set's tag and data live in one TAD, so every DRAM access
// must target the row the paper's 28-TADs-per-row geometry assigns to the
// set.

import (
	"strings"
	"testing"

	"alloysim/internal/dram"
	"alloysim/internal/memaddr"
	"alloysim/internal/policy"
	"alloysim/internal/trace"
)

func mustPanicInv(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want invariant violation containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v, want message containing %q", r, substr)
		}
	}()
	f()
}

func TestAlloyTADCoResidencyPanics(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	a, err := NewAlloy(1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the geometry: rowOf now disagrees with the 28-TAD layout
	// checkTAD recomputes independently, so any access past row 0 panics.
	a.setsPerRow = 7
	mustPanicInv(t, "co-residency", func() { access(a, 0, memaddr.Line(100), false) })
}

func TestAlloyFillCoResidencyPanics(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	a, err := NewAlloy(1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	a.setsPerRow = 7
	mustPanicInv(t, "co-residency", func() { a.Fill(0, memaddr.Line(100)) })
}

func TestAlloyLegalAccessDoesNotPanic(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	a, err := NewAlloy(1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	now := Cycle(0)
	for i := 0; i < 128; i++ {
		r := access(a, now, memaddr.Line(i*37), i%4 == 0)
		now = r.TagKnown
	}
}

func TestTDRAMCoResidencyPanics(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	td, err := NewTDRAM(1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the geometry as in the Alloy tests: rowOf now disagrees with
	// the 28-lines-per-row layout checkRow recomputes independently.
	td.setsPerRow = 7
	mustPanicInv(t, "co-residency", func() { access(td, 0, memaddr.Line(100), false) })
}

func TestTDRAMFillCoResidencyPanics(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	td, err := NewTDRAM(1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	td.setsPerRow = 7
	mustPanicInv(t, "co-residency", func() { td.Fill(0, memaddr.Line(100)) })
}

func TestGeminiDualResidencyPanics(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	g, err := NewGemini(1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt contents: the same line resident in both regions breaks the
	// exclusive-placement invariant every access asserts.
	g.dm.Fill(memaddr.Line(9), false)
	g.sa.Fill(memaddr.Line(9), false)
	mustPanicInv(t, "both regions", func() { access(g, 0, memaddr.Line(9), false) })
}

func TestGeminiUnreservedFillPanics(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	g, err := NewGemini(1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	// A fill no read miss reserved a frame for is a bookkeeping bug.
	mustPanicInv(t, "no miss reserved", func() { g.Fill(0, memaddr.Line(9)) })
}

// TestGeminiFillAfterInflightEviction: a conflicting miss may evict a
// reserved frame before its fill lands. That is a legal state, so the
// late fill must not trip the reservation check, while a second fill of
// the same line must.
func TestGeminiFillAfterInflightEviction(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	g, err := NewGemini(1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	a := memaddr.Line(9)
	b := a + memaddr.Line(g.dm.Config().Sets) // same direct-mapped set
	if r := access(g, 0, a, false); !r.Allocated {
		t.Fatal("miss on a did not reserve a frame")
	}
	if r := access(g, 0, b, false); !r.Allocated || g.Contains(a) {
		t.Fatal("conflicting miss on b did not evict a's reserved frame")
	}
	g.Fill(0, a)
	g.Fill(0, b)
	mustPanicInv(t, "no miss reserved", func() { g.Fill(0, a) })
}

// TestGeminiWarmReservesNothing: warm-up never fills, so a warm-up
// through WarmAccess must leave no in-flight reservation behind, under
// every SA-region policy. A stale one would let a measured fill that no
// measured miss reserved pass the reservation check. The same stream
// through AccessInto reserves a frame per read miss.
func TestGeminiWarmReservesNothing(t *testing.T) {
	prof, ok := trace.ByName("mcf_r")
	if !ok {
		t.Fatal("no mcf_r profile")
	}
	refs := trace.Capture(prof.MustBuild(1, 64, 0), 12_000)
	for _, pol := range policy.Known() {
		build := func() *Gemini {
			g, err := NewGemini((256<<20)/64, dram.MustNew(dram.StackedConfig()), GeminiWithPolicy(pol), GeminiWithSeed(SeedFor("gemini", pol)))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		warmed, live := build(), build()
		for _, r := range refs {
			warmed.WarmAccess(r.Line, r.Write)
			access(live, 0, r.Line, r.Write)
		}
		if n := len(warmed.inflight); n != 0 {
			t.Errorf("%s: WarmAccess left %d in-flight reservations", pol, n)
		}
		if len(live.inflight) == 0 {
			t.Errorf("%s: AccessInto reserved nothing; the stream has no read misses", pol)
		}
		if warmed.TagStats().Misses == 0 || warmed.sa.Stats().Accesses() == 0 {
			t.Errorf("%s: warm-up installed nothing in the SA region (stats %+v)", pol, warmed.sa.Stats())
		}
	}
}

func TestZooLegalAccessDoesNotPanic(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	orgs := []Organization{}
	if b, err := NewBanshee(1<<20, d); err == nil {
		orgs = append(orgs, b)
	} else {
		t.Fatal(err)
	}
	if g, err := NewGemini(1<<20, d); err == nil {
		orgs = append(orgs, g)
	} else {
		t.Fatal(err)
	}
	if td, err := NewTDRAM(1<<20, d); err == nil {
		orgs = append(orgs, td)
	} else {
		t.Fatal(err)
	}
	for _, o := range orgs {
		now := Cycle(0)
		for i := 0; i < 128; i++ {
			r := access(o, now, memaddr.Line(i*37), i%4 == 0)
			now = r.TagKnown
			if r.Allocated {
				o.Fill(now, memaddr.Line(i*37))
			}
		}
	}
}
