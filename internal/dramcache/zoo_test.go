package dramcache

import (
	"sort"
	"testing"

	"alloysim/internal/memaddr"
)

// Design-zoo behavior tests: TDRAM's dedicated tag path, Banshee's fill
// filter, Gemini's steering and region routing, and the design registry.

func TestTDRAMHitLatencyAndEarlyTag(t *testing.T) {
	st := stacked()
	o, err := NewTDRAM(testCap, st)
	if err != nil {
		t.Fatal(err)
	}
	fillLine(t, o, 1000)
	st.Reset() // close all rows
	r := access(o, 0, 1000, false)
	if !r.Hit {
		t.Fatal("expected hit")
	}
	// Closed row: ACT(18) + CAS(18) + one line burst(4) = 40 — no TAD tax
	// (Alloy pays 41 for the same access).
	if r.DataReady != 40 {
		t.Fatalf("cold TDRAM hit latency = %d, want 40", r.DataReady)
	}
	// The dedicated tag path resolves the outcome at CAS completion plus
	// one check cycle — before the burst drains.
	if r.TagKnown >= r.DataReady {
		t.Fatalf("TagKnown %d not earlier than DataReady %d", r.TagKnown, r.DataReady)
	}
	if want := r.First.CASDone + TagCheckCycles; r.TagKnown != want {
		t.Fatalf("TagKnown = %d, want CASDone+1 = %d", r.TagKnown, want)
	}
}

func TestTDRAMMissResolvesBeforeAlloy(t *testing.T) {
	at, tt := stacked(), stacked()
	a, _ := NewAlloy(testCap, at)
	d, _ := NewTDRAM(testCap, tt)
	ra := access(a, 0, 42, false)
	rd := access(d, 0, 42, false)
	if ra.Hit || rd.Hit {
		t.Fatal("cold accesses must miss")
	}
	if rd.TagKnown >= ra.TagKnown {
		t.Fatalf("TDRAM miss resolved at %d, Alloy at %d; dedicated tag path should be earlier", rd.TagKnown, ra.TagKnown)
	}
	if a.CapacityBytes() != d.CapacityBytes() {
		t.Fatalf("capacities differ: Alloy %d, TDRAM %d (both should use 28 lines/row)", a.CapacityBytes(), d.CapacityBytes())
	}
}

func TestTDRAMFillWritesOneLine(t *testing.T) {
	st := stacked()
	o, _ := NewTDRAM(testCap, st)
	before := st.Stats()
	o.Fill(0, 1234)
	after := st.Stats()
	if after.Reads != before.Reads || after.Writes != before.Writes+1 {
		t.Fatalf("TDRAM fill traffic: reads %d->%d writes %d->%d, want one write only",
			before.Reads, after.Reads, before.Writes, after.Writes)
	}
}

func TestBansheeFillFilterAdmitsOnSecondMiss(t *testing.T) {
	st := stacked()
	o, err := NewBanshee(testCap, st)
	if err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	r := access(o, 0, 42, false)
	if r.Hit || r.Allocated {
		t.Fatal("first miss must bypass, not allocate")
	}
	if o.Contains(42) {
		t.Fatal("bypassed line is resident")
	}
	if st.Stats() != before {
		t.Fatal("bypassed miss consumed stacked bandwidth")
	}
	if o.bypassed.Value() != 1 || o.admitted.Value() != 0 {
		t.Fatalf("filter counters: bypassed=%d admitted=%d, want 1/0", o.bypassed.Value(), o.admitted.Value())
	}
	r = access(o, 100, 42, false)
	if r.Hit || !r.Allocated {
		t.Fatal("second miss must cross the threshold and allocate")
	}
	if !o.Contains(42) {
		t.Fatal("admitted line not resident")
	}
	if o.admitted.Value() != 1 {
		t.Fatalf("admitted = %d, want 1", o.admitted.Value())
	}
	// Hit reads exactly one line; tags are on-chip.
	before = st.Stats()
	r = access(o, 200, 42, false)
	if !r.Hit {
		t.Fatal("expected hit after admission")
	}
	if got := st.Stats().Reads - before.Reads; got != 1 {
		t.Fatalf("Banshee hit issued %d stacked reads, want 1", got)
	}
	if r.TagKnown != 200+TagCheckCycles {
		t.Fatalf("TagKnown = %d, want now+%d (on-chip tags)", r.TagKnown, TagCheckCycles)
	}
}

func TestBansheeHotPageAdmitsSubsequentLinesOnFirstMiss(t *testing.T) {
	o, _ := NewBanshee(testCap, stacked())
	// Two misses on line 42 heat its page past the threshold.
	access(o, 0, 42, false)
	access(o, 100, 42, false)
	if !o.Contains(42) {
		t.Fatal("line 42 not admitted after two misses")
	}
	// Hotness is a page property: line 43 shares the page and must admit
	// on its first miss — the counter saturates rather than resetting on
	// admission.
	r := access(o, 200, 43, false)
	if !r.Allocated {
		t.Fatal("first miss on a hot page bypassed; counter was reset on admission")
	}
	if !o.Contains(43) {
		t.Fatal("admitted line 43 not resident")
	}
	// A cold page is unaffected: its first miss still bypasses.
	r = access(o, 300, 4242, false) // page 66, distinct counter
	if r.Allocated || o.Contains(4242) {
		t.Fatal("first miss on a cold page did not bypass")
	}
}

func TestBansheeWriteMissDoesNotTrainFilter(t *testing.T) {
	o, _ := NewBanshee(testCap, stacked())
	access(o, 0, 42, true) // write miss: forwarded, no counter bump
	r := access(o, 10, 42, false)
	if r.Allocated {
		t.Fatal("read miss after a write miss allocated; writes must not train the filter")
	}
}

func TestBansheeCapacityHasNoTagOverhead(t *testing.T) {
	st := stacked()
	b, _ := NewBanshee(testCap, st)
	a, _ := NewAlloy(testCap, st)
	if b.CapacityBytes() <= a.CapacityBytes() {
		t.Fatalf("Banshee capacity %d not above Alloy's %d; page-table tags free the in-row tag space", b.CapacityBytes(), a.CapacityBytes())
	}
}

func TestGeminiSteersConflictingLinesToSA(t *testing.T) {
	o, err := NewGemini(testCap, stacked())
	if err != nil {
		t.Fatal(err)
	}
	dmSets := memaddr.Line(o.dm.Config().Sets)
	a, b := memaddr.Line(5), memaddr.Line(5)+dmSets // same DM set
	now := Cycle(0)
	access := func(l memaddr.Line) AccessResult {
		r := access(o, now, l, false)
		now += 1000
		return r
	}
	// Ping-pong the conflicting pair: each install evicts the other and
	// trains the victim toward the set-associative region.
	for i := 0; i < 4; i++ {
		access(a)
		access(b)
	}
	// Once steering saturates, one of the pair lives in the SA region and
	// both stay resident together.
	access(a)
	access(b)
	ra, rb := access(a), access(b)
	if !ra.Hit || !rb.Hit {
		t.Fatalf("conflicting pair still thrashing after steering: hits %v/%v", ra.Hit, rb.Hit)
	}
	if !o.sa.Contains(a) && !o.sa.Contains(b) {
		t.Fatal("neither line migrated to the set-associative region")
	}
}

func TestGeminiRegionsDisjointAndStatsSum(t *testing.T) {
	o, _ := NewGemini(testCap, stacked())
	now := Cycle(0)
	for l := memaddr.Line(0); l < 64; l++ {
		access(o, now, l, false)
		now += 100
	}
	for l := memaddr.Line(0); l < 64; l++ {
		if o.dm.Contains(l) && o.sa.Contains(l) {
			t.Fatalf("line %d resident in both regions", l)
		}
	}
	d, s := o.dm.Stats(), o.sa.Stats()
	sum := o.TagStats()
	if sum.Hits != d.Hits+s.Hits || sum.Misses != d.Misses+s.Misses {
		t.Fatalf("TagStats not the per-region sum: %+v vs %+v + %+v", sum, d, s)
	}
	if sum.Accesses() != 64 {
		t.Fatalf("TagStats.Accesses = %d, want one stats-bearing op per access (64)", sum.Accesses())
	}
}

func TestGeminiMisroutedHitSerializesSecondProbe(t *testing.T) {
	o, _ := NewGemini(testCap, stacked())
	// Force a line into the SA region, then clear its steering so the next
	// access probes DM first and must chase into SA.
	idx := o.steerIndex(77)
	o.steer[idx] = geminiSteerMax
	fillLine(t, o, 77)
	if !o.sa.Contains(77) {
		t.Fatal("steered install did not land in the SA region")
	}
	o.steer[idx] = 0
	r := access(o, 100000, 77, false)
	if !r.Hit {
		t.Fatal("expected hit")
	}
	if o.saMisrouted.Value() != 1 {
		t.Fatalf("misroute counter = %d, want 1", o.saMisrouted.Value())
	}
	// The hit also re-trains the line toward its owning region.
	if o.steer[idx] == 0 {
		t.Fatal("misrouted hit did not train the steering counter back toward SA")
	}
}

func TestGeminiMisroutedDMHitConsumesDMProbe(t *testing.T) {
	o, _ := NewGemini(testCap, stacked())
	// Default steering installs into the DM region.
	fillLine(t, o, 55)
	if !o.dm.Contains(55) {
		t.Fatal("default install did not land in the DM region")
	}
	// Flip steering so the next access probes SA first and must chase
	// into the DM region.
	idx := o.steerIndex(55)
	o.steer[idx] = geminiSteerMax
	r := access(o, 100000, 55, false)
	if !r.Hit {
		t.Fatal("expected hit")
	}
	if o.saMisrouted.Value() != 1 {
		t.Fatalf("misroute counter = %d, want 1", o.saMisrouted.Value())
	}
	// The data rides the DM region's TAD stream — the second probe — so
	// DataReady is that burst's completion, one tag check before TagKnown,
	// exactly as in a clean DM read hit.
	if r.DataReady+TagCheckCycles != r.TagKnown {
		t.Fatalf("DataReady %d is not the misrouted DM burst's completion (TagKnown %d)", r.DataReady, r.TagKnown)
	}
	// And the misroute serialization penalty reaches hit latency: an
	// identical twin that probes DM directly finishes strictly earlier.
	o2, _ := NewGemini(testCap, stacked())
	fillLine(t, o2, 55)
	clean := access(o2, 100000, 55, false)
	if !clean.Hit {
		t.Fatal("twin: expected hit")
	}
	if r.DataReady <= clean.DataReady {
		t.Fatalf("misrouted DM hit DataReady %d not later than clean DM hit's %d", r.DataReady, clean.DataReady)
	}
}

func TestGeminiFillRoutesByRegion(t *testing.T) {
	st := stacked()
	o, _ := NewGemini(testCap, st)
	// DM install: fill writes one TAD burst, no tag read.
	fillLine(t, o, 5)
	if !o.dm.Contains(5) {
		t.Fatal("default install should land in the DM region")
	}
	before := st.Stats()
	o.Fill(0, 5)
	after := st.Stats()
	if after.Reads != before.Reads || after.Writes != before.Writes+1 {
		t.Fatalf("DM fill traffic: reads %d->%d writes %d->%d, want one write",
			before.Reads, after.Reads, before.Writes, after.Writes)
	}
	// SA install: fill pays the Loh-Hill victim-selection tag read.
	o.steer[o.steerIndex(9)] = geminiSteerMax
	fillLine(t, o, 9)
	if !o.sa.Contains(9) {
		t.Fatal("steered install should land in the SA region")
	}
	before = st.Stats()
	o.Fill(0, 9)
	after = st.Stats()
	if after.Reads != before.Reads+1 || after.Writes != before.Writes+1 {
		t.Fatalf("SA fill traffic: reads %d->%d writes %d->%d, want one tag read and one write",
			before.Reads, after.Reads, before.Writes, after.Writes)
	}
}

func TestRegistryBuildsEveryDesign(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names not sorted: %v", names)
	}
	if len(names) != 13 {
		t.Fatalf("registry holds %d designs, want 13: %v", len(names), names)
	}
	for _, n := range names {
		o, err := Build(n, Params{CapacityBytes: testCap, Stacked: stacked()})
		if err != nil {
			t.Errorf("Build(%q): %v", n, err)
			continue
		}
		if o == nil || o.Name() == "" {
			t.Errorf("Build(%q) returned a nameless organization", n)
		}
	}
	if _, err := Build("bogus", Params{CapacityBytes: testCap, Stacked: stacked()}); err == nil {
		t.Error("Build(bogus) should fail")
	}
}

func TestRegistryPolicyOverrides(t *testing.T) {
	st := stacked()
	// Policy-capable designs accept the override…
	for _, n := range []string{"lh-29", "gemini"} {
		o, err := Build(n, Params{CapacityBytes: testCap, Stacked: st, Policy: "ship", Seed: 7})
		if err != nil {
			t.Errorf("Build(%q, ship): %v", n, err)
			continue
		}
		if o == nil {
			t.Errorf("Build(%q, ship) returned nil", n)
		}
	}
	// …fixed designs reject it instead of silently ignoring it.
	for _, n := range []string{"alloy", "sram-32", "banshee", "tdram", "lh-29-rand"} {
		if _, err := Build(n, Params{CapacityBytes: testCap, Stacked: st, Policy: "lru"}); err == nil {
			t.Errorf("Build(%q, lru) should reject the policy override", n)
		}
	}
	// Unknown policies surface the policy package's error.
	if _, err := Build("gemini", Params{CapacityBytes: testCap, Stacked: st, Policy: "bogus"}); err == nil {
		t.Error("Build(gemini, bogus) should fail")
	}
}

func TestSeedForStableAndDistinct(t *testing.T) {
	a := SeedFor("lh-29", "random")
	if a == 0 {
		t.Fatal("SeedFor returned the reserved zero seed")
	}
	if a != SeedFor("lh-29", "random") {
		t.Fatal("SeedFor not deterministic")
	}
	if a == SeedFor("gemini", "random") || a == SeedFor("lh-29", "ship") {
		t.Fatal("SeedFor collides across (design, policy) cells")
	}
	// The delimiter keeps ("ab","c") and ("a","bc") apart.
	if SeedFor("ab", "c") == SeedFor("a", "bc") {
		t.Fatal("SeedFor concatenation ambiguity")
	}
}
