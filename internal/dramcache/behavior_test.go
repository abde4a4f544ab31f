package dramcache

import (
	"testing"
	"testing/quick"

	"alloysim/internal/dram"
	"alloysim/internal/memaddr"
)

// Behavioral tests beyond the Figure 3 latency checks: fill flows,
// associativity semantics, write-path traffic, and cross-organization
// capacity invariants.

func TestAlloy2WayLRUWithinSet(t *testing.T) {
	st := stacked()
	o, _ := NewAlloy(testCap, st, AlloyWithAssoc(2))
	sets := uint64(testCap / 2048 * AlloyTADsPerRow / 2)
	a, b, c := memaddr.Line(5), memaddr.Line(5+sets), memaddr.Line(5+2*sets)
	fillLine(t, o, a)
	fillLine(t, o, b)
	// Touch a so b is LRU, then insert c: b must be evicted.
	access(o, 10000, a, false)
	r := access(o, 20000, c, false)
	if !r.Victim.Valid || r.Victim.Line != b {
		t.Fatalf("victim %+v, want line %d (LRU)", r.Victim, b)
	}
	if !o.Contains(a) || !o.Contains(c) || o.Contains(b) {
		t.Fatal("2-way set contents wrong after eviction")
	}
}

func TestLHFillWritesTagAndData(t *testing.T) {
	st := stacked()
	o, _ := NewLHCache(testCap, st)
	before := st.Stats()
	o.Fill(0, 1234)
	after := st.Stats()
	if after.Reads != before.Reads+1 {
		t.Fatalf("LH fill tag reads: %d -> %d, want +1 (victim selection)", before.Reads, after.Reads)
	}
	if after.Writes != before.Writes+1 {
		t.Fatalf("LH fill writes: %d -> %d, want +1 (data+tag)", before.Writes, after.Writes)
	}
}

func TestSRAMFillWritesDataOnly(t *testing.T) {
	st := stacked()
	o, _ := NewSRAMTag(testCap, 32, st)
	before := st.Stats()
	o.Fill(0, 1234)
	after := st.Stats()
	if after.Reads != before.Reads {
		t.Fatal("SRAM-Tag fill read from stacked DRAM; tags live in SRAM")
	}
	if after.Writes != before.Writes+1 {
		t.Fatal("SRAM-Tag fill did not write the data line")
	}
}

func TestAlloyWriteHitTrafficShape(t *testing.T) {
	st := stacked()
	o, _ := NewAlloy(testCap, st)
	fillLine(t, o, 7)
	before := st.Stats()
	r := access(o, 50000, 7, true)
	after := st.Stats()
	if !r.Hit {
		t.Fatal("write to present line missed")
	}
	// A write hit reads the TAD (tag check) then writes the data.
	if after.Reads != before.Reads+1 || after.Writes != before.Writes+1 {
		t.Fatalf("write-hit traffic: reads %d->%d writes %d->%d, want +1/+1",
			before.Reads, after.Reads, before.Writes, after.Writes)
	}
}

func TestLHMissStillReadsTags(t *testing.T) {
	// §5.1: "even on a DRAM cache miss, we still need to read the tags
	// anyway to select a victim line".
	st := stacked()
	o, _ := NewLHCache(testCap, st)
	before := st.Stats().Reads
	access(o, 0, 42, false) // cold miss
	if st.Stats().Reads != before+1 {
		t.Fatal("LH miss consumed no tag-read bandwidth")
	}
}

func TestIdealLOMissConsumesNoBandwidth(t *testing.T) {
	st := stacked()
	o, _ := NewIdealLO(testCap, st)
	before := st.Stats()
	access(o, 0, 42, false) // cold miss
	after := st.Stats()
	if after.Reads != before.Reads || after.Writes != before.Writes {
		t.Fatal("IDEAL-LO miss touched the stacked DRAM")
	}
}

func TestSRAMTag1WayRowLocality(t *testing.T) {
	// The direct-mapped SRAM-Tag variant maps 32 consecutive sets per
	// row, so a streaming hit sequence gets row-buffer hits — the
	// "indirect" benefit Table 1 credits to de-optimization.
	st := stacked()
	o, _ := NewSRAMTag(testCap, 1, st)
	for l := memaddr.Line(0); l < 16; l++ {
		access(o, 0, l, false) // misses allocate
	}
	st.Reset()
	now := Cycle(0)
	hits := 0
	for l := memaddr.Line(0); l < 16; l++ {
		r := access(o, now, l, false)
		if r.RowHit {
			hits++
		}
		now = r.DataReady
	}
	if hits < 12 {
		t.Fatalf("SRAM-Tag 1-way streaming row hits = %d/16, want most", hits)
	}
}

func TestCapacityInvariant(t *testing.T) {
	// For the same raw DRAM budget: SRAM-Tag (32 lines/row) > LH (29) >
	// Alloy/IDEAL-LO (28); NoTagOverhead recovers the full 32.
	st := stacked()
	sram, _ := NewSRAMTag(testCap, 32, st)
	lh, _ := NewLHCache(testCap, st)
	alloy, _ := NewAlloy(testCap, st)
	ideal, _ := NewIdealLO(testCap, st)
	noTag, _ := NewIdealLO(testCap, st, IdealNoTagOverhead())
	if !(sram.CapacityBytes() > lh.CapacityBytes() &&
		lh.CapacityBytes() > alloy.CapacityBytes() &&
		alloy.CapacityBytes() == ideal.CapacityBytes() &&
		noTag.CapacityBytes() == sram.CapacityBytes()) {
		t.Fatalf("capacity ordering broken: sram=%d lh=%d alloy=%d ideal=%d notag=%d",
			sram.CapacityBytes(), lh.CapacityBytes(), alloy.CapacityBytes(),
			ideal.CapacityBytes(), noTag.CapacityBytes())
	}
}

// Property: for every organization, a read access either hits with data in
// the future, or allocates with the line present afterwards; TagKnown is
// never before the access time.
func TestQuickAccessInvariants(t *testing.T) {
	orgs := []func() Organization{
		func() Organization { o, _ := NewSRAMTag(testCap, 32, stacked()); return o },
		func() Organization { o, _ := NewLHCache(testCap, stacked()); return o },
		func() Organization { o, _ := NewAlloy(testCap, stacked()); return o },
		func() Organization { o, _ := NewIdealLO(testCap, stacked()); return o },
		func() Organization { o, _ := NewBanshee(testCap, stacked()); return o },
		func() Organization { o, _ := NewGemini(testCap, stacked()); return o },
		func() Organization { o, _ := NewTDRAM(testCap, stacked()); return o },
	}
	for _, mk := range orgs {
		o := mk()
		f := func(lines []uint16) bool {
			now := Cycle(0)
			for _, l := range lines {
				line := memaddr.Line(l)
				r := access(o, now, line, false)
				if r.TagKnown < now {
					return false
				}
				if r.Hit && r.DataReady < now {
					return false
				}
				if !r.Hit && r.Allocated && !o.Contains(line) {
					return false
				}
				now += 13
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%s: %v", o.Name(), err)
		}
	}
}

func TestResetStatsClearsOrganization(t *testing.T) {
	o, _ := NewAlloy(testCap, stacked())
	fillLine(t, o, 9)
	access(o, 1000, 9, false)
	o.ResetStats()
	if o.TagStats().Accesses() != 0 {
		t.Fatal("tag stats survived reset")
	}
	if o.HitLatencyMean() != 0 {
		t.Fatal("hit latency survived reset")
	}
	if !o.Contains(9) {
		t.Fatal("contents lost on stats reset")
	}
}

// Guard the shared stacked-device assumption: two organizations must not
// share one device instance's bank state in tests that compare them.
func TestSeparateDevicesIndependent(t *testing.T) {
	s1, s2 := stacked(), stacked()
	a, _ := NewAlloy(testCap, s1)
	b, _ := NewAlloy(testCap, s2)
	access(a, 0, 1, false)
	if s2.Stats().Reads != 0 {
		t.Fatal("device state leaked between instances")
	}
	_ = b
	_ = dram.Stats{}
}
