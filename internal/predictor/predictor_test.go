package predictor

import (
	"testing"
	"testing/quick"

	"alloysim/internal/memaddr"
)

func TestSAMAlwaysSerial(t *testing.T) {
	var p SAM
	hit, lat := p.Predict(0, 0x400, 5)
	if !hit || lat != 0 {
		t.Fatalf("SAM predict = (%v,%d), want (true,0)", hit, lat)
	}
}

func TestPAMAlwaysParallel(t *testing.T) {
	var p PAM
	hit, lat := p.Predict(0, 0x400, 5)
	if hit || lat != 0 {
		t.Fatalf("PAM predict = (%v,%d), want (false,0)", hit, lat)
	}
}

func TestMAPGLearnsStreaks(t *testing.T) {
	p := NewMAPG(1)
	// Train with misses (memory services): should predict memory.
	for i := 0; i < 8; i++ {
		p.Update(0, 0, 0, false)
	}
	if hit, lat := p.Predict(0, 0, 0); hit || lat != MAPLatency {
		t.Fatalf("after miss streak: predict=(%v,%d), want (false,1)", hit, lat)
	}
	// Train with hits: should flip to cache.
	for i := 0; i < 8; i++ {
		p.Update(0, 0, 0, true)
	}
	if hit, _ := p.Predict(0, 0, 0); !hit {
		t.Fatal("after hit streak: still predicting memory")
	}
}

func TestMAPGLastTimeBeatsHitRate(t *testing.T) {
	// The paper's §5.3 example: outcomes MMMMHHHH. A last-time-style
	// predictor tracks the streaks; hit-rate-based prediction would sit at
	// 50%. Verify MAP-G gets at least 6 of 8 right after the first streak.
	p := NewMAPG(1)
	var outcomes []bool
	for streak := 0; streak < 6; streak++ {
		for i := 0; i < 16; i++ {
			outcomes = append(outcomes, streak%2 == 1)
		}
	}
	// Warm with one pair of streaks.
	for _, o := range outcomes[:32] {
		p.Update(0, 0, 0, o)
	}
	correct := 0
	for _, o := range outcomes {
		pred, _ := p.Predict(0, 0, 0)
		if pred == o {
			correct++
		}
		p.Update(0, 0, 0, o)
	}
	// The 3-bit counter loses at most 4 predictions per phase change;
	// hit-rate-based prediction would sit at 50%.
	if frac := float64(correct) / float64(len(outcomes)); frac < 0.7 {
		t.Fatalf("MAP-G accuracy %.2f on streaky pattern, want >= 0.7", frac)
	}
}

func TestMAPGPerCoreIsolation(t *testing.T) {
	p := NewMAPG(2)
	for i := 0; i < 8; i++ {
		p.Update(0, 0, 0, true)  // core 0: hits
		p.Update(1, 0, 0, false) // core 1: misses
	}
	h0, _ := p.Predict(0, 0, 0)
	h1, _ := p.Predict(1, 0, 0)
	if !h0 || h1 {
		t.Fatalf("cores share state: core0=%v core1=%v", h0, h1)
	}
}

func TestMAPIDistinguishesPCs(t *testing.T) {
	p := NewMAPI(1)
	pcMiss, pcHit := uint64(0x400000), uint64(0x500000)
	if p.index(pcMiss) == p.index(pcHit) {
		t.Skip("test PCs collide in MACT; pick different ones")
	}
	for i := 0; i < 8; i++ {
		p.Update(0, pcMiss, 0, false)
		p.Update(0, pcHit, 0, true)
	}
	if hit, _ := p.Predict(0, pcMiss, 0); hit {
		t.Fatal("streaming PC predicted as cache hit")
	}
	if hit, _ := p.Predict(0, pcHit, 0); !hit {
		t.Fatal("hot PC predicted as memory")
	}
}

// TestMAPIStorage96Bytes pins the MACT geometry to the 96 bytes per core
// the paper's abstract reports.
func TestMAPIStorage96Bytes(t *testing.T) {
	if got := MACTEntries * macBits / 8; got != 96 {
		t.Fatalf("MAP-I storage = %d bytes/core, want 96", got)
	}
}

func TestMAPISaturatingCounters(t *testing.T) {
	p := NewMAPI(1)
	// Saturate down then a single opposite outcome must not flip MSB from
	// a fully trained state (hysteresis).
	for i := 0; i < 20; i++ {
		p.Update(0, 0x400, 0, true)
	}
	p.Update(0, 0x400, 0, false)
	if hit, _ := p.Predict(0, 0x400, 0); !hit {
		t.Fatal("single miss flipped a saturated hit counter")
	}
	// Saturation must not wrap.
	for i := 0; i < 100; i++ {
		p.Update(0, 0x400, 0, false)
	}
	if hit, _ := p.Predict(0, 0x400, 0); hit {
		t.Fatal("counter failed to reach memory prediction")
	}
}

func TestPerfectOracle(t *testing.T) {
	present := map[memaddr.Line]bool{5: true}
	p := Perfect{Contains: func(l memaddr.Line) bool { return present[l] }}
	if hit, lat := p.Predict(0, 0, 5); !hit || lat != 0 {
		t.Fatalf("Perfect(5) = (%v,%d), want (true,0)", hit, lat)
	}
	if hit, _ := p.Predict(0, 0, 6); hit {
		t.Fatal("Perfect(6) = true, want false")
	}
}

func TestMissMapLatency24(t *testing.T) {
	m := MissMap{Contains: func(memaddr.Line) bool { return true }}
	hit, lat := m.Predict(0, 0, 1)
	if !hit || lat != 24 {
		t.Fatalf("MissMap = (%v,%d), want (true,24)", hit, lat)
	}
}

func TestAccuracyScenarios(t *testing.T) {
	var a Accuracy
	a.Record(false, false) // mem, pred mem
	a.Record(true, false)  // mem, pred cache
	a.Record(false, true)  // cache, pred mem
	a.Record(true, true)   // cache, pred cache
	if a.MemPredMem != 1 || a.MemPredCache != 1 || a.CachePredMem != 1 || a.CachePredCache != 1 {
		t.Fatalf("scenario counts wrong: %+v", a)
	}
	if a.Total() != 4 {
		t.Fatalf("total = %d, want 4", a.Total())
	}
	if a.Overall() != 0.5 {
		t.Fatalf("overall = %v, want 0.5", a.Overall())
	}
	if a.Fraction(a.MemPredMem) != 0.25 {
		t.Fatalf("fraction = %v, want 0.25", a.Fraction(a.MemPredMem))
	}
}

func TestAccuracyEmpty(t *testing.T) {
	var a Accuracy
	if a.Overall() != 0 || a.Fraction(1) != 0 {
		t.Fatal("empty accuracy should report zeros")
	}
}

// Property: Accuracy totals always equal the number of records, and the
// overall accuracy is in [0,1].
func TestAccuracyQuick(t *testing.T) {
	f := func(events []bool) bool {
		var a Accuracy
		for i, pred := range events {
			actual := i%3 == 0
			a.Record(pred, actual)
		}
		return a.Total() == uint64(len(events)) && a.Overall() >= 0 && a.Overall() <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MAP-I counters never make Predict panic and all indices stay
// in table bounds for arbitrary PCs.
func TestMAPIQuickAnyPC(t *testing.T) {
	p := NewMAPI(2)
	f := func(pc uint64, core bool, outcome bool) bool {
		c := 0
		if core {
			c = 1
		}
		p.Update(c, pc, 0, outcome)
		hit, lat := p.Predict(c, pc, 0)
		_ = hit
		return lat == MAPLatency
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
