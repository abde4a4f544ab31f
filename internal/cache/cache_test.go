package cache

import (
	"testing"
	"testing/quick"

	"alloysim/internal/memaddr"
	"alloysim/internal/policy"
)

func mk(t *testing.T, sets, assoc int, pol string) *Cache {
	t.Helper()
	c, err := New(Config{Sets: sets, Assoc: assoc, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if _, err := New(Config{Sets: 0, Assoc: 4}); err == nil {
		t.Fatal("zero sets accepted")
	}
	if _, err := New(Config{Sets: 4, Assoc: 0}); err == nil {
		t.Fatal("zero assoc accepted")
	}
	if _, err := New(Config{Sets: 4, Assoc: 2, Policy: "nope"}); err == nil {
		t.Fatal("bad policy accepted")
	}
	if c := (Config{Sets: 10, Assoc: 4}); c.Lines() != 40 {
		t.Fatalf("Lines = %d, want 40", c.Lines())
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mk(t, 16, 2, "lru")
	hit, _ := c.Access(100, false)
	if hit {
		t.Fatal("cold access hit")
	}
	hit, _ = c.Access(100, false)
	if !hit {
		t.Fatal("second access missed")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit 1 miss", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", s.HitRate())
	}
}

func TestConflictEviction(t *testing.T) {
	c := mk(t, 4, 1, "lru")
	// Lines 0, 4, 8 all map to set 0 in a 4-set direct-mapped cache.
	c.Access(0, false)
	hit, ev := c.Access(4, false)
	if hit {
		t.Fatal("conflicting access hit")
	}
	if !ev.Valid || ev.Line != 0 {
		t.Fatalf("eviction %+v, want line 0", ev)
	}
	if c.Contains(0) {
		t.Fatal("evicted line still present")
	}
	if !c.Contains(4) {
		t.Fatal("filled line missing")
	}
}

func TestDirtyWritebackOnEviction(t *testing.T) {
	c := mk(t, 4, 1, "lru")
	c.Access(0, true) // write → dirty
	_, ev := c.Access(4, false)
	if !ev.Dirty {
		t.Fatal("dirty line evicted without dirty flag")
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
	// Clean line eviction carries no writeback.
	_, ev = c.Access(8, false)
	if ev.Dirty {
		t.Fatal("clean line evicted with dirty flag")
	}
	if c.Stats().Writebacks != 1 {
		t.Fatal("writeback count changed for clean eviction")
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := mk(t, 4, 1, "lru")
	c.Access(0, false)
	c.Access(0, true) // write hit marks dirty
	_, ev := c.Access(4, false)
	if !ev.Dirty {
		t.Fatal("write hit did not set dirty bit")
	}
	if c.Stats().WriteHits != 1 {
		t.Fatalf("WriteHits = %d, want 1", c.Stats().WriteHits)
	}
}

func TestLRUWithinSet(t *testing.T) {
	c := mk(t, 1, 2, "lru")
	c.Access(10, false)
	c.Access(20, false)
	c.Access(10, false) // 20 is now LRU
	_, ev := c.Access(30, false)
	if ev.Line != 20 {
		t.Fatalf("evicted %d, want 20 (LRU)", ev.Line)
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	c := mk(t, 28, 1, "lru")
	// 28 consecutive lines fill 28 distinct sets with no conflicts.
	for l := memaddr.Line(0); l < 28; l++ {
		if hit, ev := c.Access(l, false); hit || ev.Valid {
			t.Fatalf("line %d: unexpected hit/evict", l)
		}
	}
	for l := memaddr.Line(0); l < 28; l++ {
		if !c.Contains(l) {
			t.Fatalf("line %d missing after fill", l)
		}
	}
	// Line 28 wraps to set 0 and evicts line 0.
	_, ev := c.Access(28, false)
	if !ev.Valid || ev.Line != 0 {
		t.Fatalf("eviction %+v, want line 0", ev)
	}
}

func TestProbeDoesNotAllocate(t *testing.T) {
	c := mk(t, 8, 1, "lru")
	if c.Probe(5, false) {
		t.Fatal("probe hit empty cache")
	}
	if c.Contains(5) {
		t.Fatal("probe allocated")
	}
	c.Fill(5, false)
	if !c.Probe(5, false) {
		t.Fatal("probe missed present line")
	}
}

func TestFillIdempotent(t *testing.T) {
	c := mk(t, 8, 2, "lru")
	c.Fill(3, false)
	ev := c.Fill(3, true) // re-fill marks dirty, evicts nothing
	if ev.Valid {
		t.Fatal("refill evicted")
	}
	// Push line 3 out of its 2-way set: the writeback shows the dirty bit.
	c.Fill(11, false)
	if ev := c.Fill(19, false); !ev.Valid || ev.Line != 3 || !ev.Dirty {
		t.Fatalf("evicting the refilled line = %+v, want dirty line 3", ev)
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(lines []uint16) bool {
		c := MustNew(Config{Sets: 13, Assoc: 3})
		for _, l := range lines {
			c.Access(memaddr.Line(l), l%5 == 0)
		}
		return c.Occupancy() <= 39
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every line just accessed must be present immediately after
// (inclusion of most-recent access), for any associativity.
func TestMostRecentAlwaysPresent(t *testing.T) {
	f := func(lines []uint16, assocRaw uint8) bool {
		assoc := int(assocRaw)%4 + 1
		c := MustNew(Config{Sets: 7, Assoc: assoc})
		for _, l := range lines {
			c.Access(memaddr.Line(l), false)
			if !c.Contains(memaddr.Line(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: total accesses == hits + misses and evictions <= misses.
func TestStatsConsistency(t *testing.T) {
	f := func(lines []uint16) bool {
		c := MustNew(Config{Sets: 5, Assoc: 2, Policy: "dip"})
		for _, l := range lines {
			c.Access(memaddr.Line(l), false)
		}
		s := c.Stats()
		return s.Accesses() == uint64(len(lines)) && s.Evictions <= s.Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirectMappedFullCoverage(t *testing.T) {
	// Direct-mapped cache with pow2 sets behaves as classic modulo mapping.
	c := mk(t, 8, 1, "lru")
	for l := memaddr.Line(0); l < 8; l++ {
		c.Access(l, false)
	}
	if c.Occupancy() != 8 {
		t.Fatalf("occupancy %d, want 8", c.Occupancy())
	}
	s := c.Stats()
	if s.Evictions != 0 {
		t.Fatal("unexpected evictions filling distinct sets")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := mk(t, 8, 2, "lru")
	c.Access(1, false)
	c.Access(1, false)
	c.ResetStats()
	if c.Stats().Accesses() != 0 {
		t.Fatal("stats survived reset")
	}
	if !c.Contains(1) {
		t.Fatal("contents lost on stats reset")
	}
	// Recency must also survive: line 1 was MRU before the reset.
	c.Access(2, false)
	c.Access(3, false) // evicts someone; with LRU intact, never line 3
	if !c.Contains(3) {
		t.Fatal("most recent line evicted")
	}
}

func TestSRRIPPolicyInCache(t *testing.T) {
	c := mk(t, 4, 4, "srrip")
	// Reused working set survives a scan.
	for round := 0; round < 3; round++ {
		for l := memaddr.Line(0); l < 12; l += 4 { // set 0: lines 0,4,8
			c.Access(l, false)
		}
	}
	c.Access(12, false) // scan line into set 0
	c.Access(16, false) // second scan line: must evict the first scan, not the hot set
	for _, l := range []memaddr.Line{0, 4, 8} {
		if !c.Contains(l) {
			t.Fatalf("SRRIP evicted hot line %d for a scan", l)
		}
	}
}

// TestCopyFromReplaysAccesses: a cache that copied another's state answers
// every later access exactly as the original does — hits, evictions and
// dirty bits — under every policy, direct-mapped included. The copy's
// target first runs a different stream, so anything CopyFrom leaves out
// is stale.
func TestCopyFromReplaysAccesses(t *testing.T) {
	stream := func(seed uint64, n int) []memaddr.Line {
		out := make([]memaddr.Line, n)
		x := seed
		for i := range out {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			out[i] = memaddr.Line(x % 2048)
		}
		return out
	}
	for _, pol := range policy.Known() {
		for _, assoc := range []int{1, 16} {
			cfg := Config{Sets: 37, Assoc: assoc, Policy: pol}
			src, dst := MustNew(cfg), MustNew(cfg)
			for i, l := range stream(1, 4_000) {
				src.Access(l, i%3 == 0)
			}
			for i, l := range stream(2, 1_000) {
				dst.Access(l, i%2 == 0)
			}
			if err := dst.CopyFrom(src); err != nil {
				t.Fatal(err)
			}
			if dst.Stats() != src.Stats() || dst.Occupancy() != src.Occupancy() {
				t.Fatalf("%s/%d: stats or occupancy differ right after CopyFrom", pol, assoc)
			}
			for i, l := range stream(3, 10_000) {
				write := i%5 == 0
				h1, e1 := src.Access(l, write)
				h2, e2 := dst.Access(l, write)
				if h1 != h2 || e1 != e2 {
					t.Fatalf("%s/%d: access %d (line %d): original (%v, %+v), copy (%v, %+v)", pol, assoc, i, l, h1, e1, h2, e2)
				}
			}
		}
	}
	a := MustNew(Config{Sets: 4, Assoc: 2, Policy: "lru"})
	if err := a.CopyFrom(MustNew(Config{Sets: 4, Assoc: 2, Policy: "dip"})); err == nil {
		t.Fatal("CopyFrom across configurations succeeded")
	}
}
