package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// fnHandler adapts a closure to Handler so tests can express ad-hoc
// schedules inline; the model schedules pre-bound receivers instead.
type fnHandler func(now Cycle)

func (f fnHandler) Fire(now Cycle) { f(now) }

func TestEngineZeroValue(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("zero engine Now = %d, want 0", e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty engine reported work")
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.ScheduleHandler(30, fnHandler(func(Cycle) { got = append(got, 3) }))
	e.ScheduleHandler(10, fnHandler(func(Cycle) { got = append(got, 1) }))
	e.ScheduleHandler(20, fnHandler(func(Cycle) { got = append(got, 2) }))
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final Now = %d, want 30", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		e.ScheduleHandler(7, fnHandler(func(Cycle) { got = append(got, i) }))
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events out of FIFO order at %d: %v", i, got[:i+1])
		}
	}
}

// TestAfterRelative schedules from inside an event relative to the cycle
// the handler is handed: now+25 from cycle 100 fires at 125.
func TestAfterRelative(t *testing.T) {
	e := NewEngine()
	var fired Cycle
	e.ScheduleHandler(100, fnHandler(func(now Cycle) {
		e.ScheduleHandler(now+25, fnHandler(func(Cycle) { fired = e.Now() }))
	}))
	e.Run()
	if fired != 125 {
		t.Fatalf("now+25 from cycle 100 fired at %d, want 125", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleHandler(10, fnHandler(func(Cycle) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleHandler(5, fnHandler(func(Cycle) {}))
	}))
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for _, c := range []Cycle{5, 10, 15, 20} {
		e.ScheduleHandler(c, fnHandler(func(Cycle) { count++ }))
	}
	if e.RunUntil(12) {
		t.Fatal("RunUntil(12) claimed the queue drained")
	}
	if count != 2 {
		t.Fatalf("RunUntil(12) ran %d events, want 2", count)
	}
	if !e.RunUntil(100) {
		t.Fatal("RunUntil(100) did not drain")
	}
	if count != 4 {
		t.Fatalf("total events %d, want 4", count)
	}
}

func TestCascadedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse fnHandler
	recurse = func(now Cycle) {
		if depth < 1000 {
			depth++
			e.ScheduleHandler(now+1, recurse)
		}
	}
	e.ScheduleHandler(0, recurse)
	e.Run()
	if depth != 1000 {
		t.Fatalf("cascade depth %d, want 1000", depth)
	}
	if e.Now() != 1000 {
		t.Fatalf("Now = %d, want 1000", e.Now())
	}
	if e.nSteps != 1001 {
		t.Fatalf("steps = %d, want 1001", e.nSteps)
	}
}

// TestHeapPropertyRandom drains a large random schedule and verifies
// monotonically non-decreasing firing times.
func TestHeapPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	var times []Cycle
	const n = 5000
	want := make([]Cycle, 0, n)
	for i := 0; i < n; i++ {
		c := Cycle(rng.Intn(10000))
		want = append(want, c)
		e.ScheduleHandler(c, fnHandler(func(Cycle) { times = append(times, e.Now()) }))
	}
	e.Run()
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(times) != n {
		t.Fatalf("ran %d events, want %d", len(times), n)
	}
	for i := range times {
		if times[i] != want[i] {
			t.Fatalf("event %d fired at %d, want %d", i, times[i], want[i])
		}
	}
}

// Property: for any set of delays, events fire in non-decreasing time order
// and the engine ends at the max scheduled cycle.
func TestQuickOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Cycle
		var max Cycle
		for _, d := range delays {
			c := Cycle(d)
			if c > max {
				max = c
			}
			e.ScheduleHandler(c, fnHandler(func(Cycle) { fired = append(fired, e.Now()) }))
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWheelHeapBoundaryFIFO schedules events for the same far-future cycle
// from both sides of the wheel horizon: two while the cycle is beyond the
// horizon (far heap) and one after the clock advanced enough to place it in
// the wheel directly. Firing order must follow scheduling order.
func TestWheelHeapBoundaryFIFO(t *testing.T) {
	e := NewEngine()
	target := Cycle(WheelSpan + 100)
	var got []int
	e.ScheduleHandler(target, fnHandler(func(Cycle) { got = append(got, 0) })) // heap: 0+span <= target
	e.ScheduleHandler(200, fnHandler(func(Cycle) {
		// now = 200: target is inside [200, 200+span) → wheel.
		e.ScheduleHandler(target, fnHandler(func(Cycle) { got = append(got, 2) }))
	}))
	e.ScheduleHandler(target, fnHandler(func(Cycle) { got = append(got, 1) })) // heap again
	e.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("boundary firing order %v, want %v", got, want)
		}
	}
}

// TestSameCycleFIFOAfterMigration checks FIFO order among many events at
// one cycle that entered the engine through the far heap.
func TestSameCycleFIFOAfterMigration(t *testing.T) {
	e := NewEngine()
	target := Cycle(3 * WheelSpan)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.ScheduleHandler(target, fnHandler(func(Cycle) { got = append(got, i) }))
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("migrated same-cycle events out of order at %d: %v", i, got[:i+1])
		}
	}
	if len(got) != 100 {
		t.Fatalf("ran %d events, want 100", len(got))
	}
}

// TestRunUntilExactLimit: events exactly at the limit execute; the next
// cycle does not, both within the wheel and beyond the horizon.
func TestRunUntilExactLimit(t *testing.T) {
	for _, limit := range []Cycle{10, WheelSpan + 10} {
		e := NewEngine()
		var atLimit, past bool
		e.ScheduleHandler(limit, fnHandler(func(Cycle) { atLimit = true }))
		e.ScheduleHandler(limit+1, fnHandler(func(Cycle) { past = true }))
		if e.RunUntil(limit) {
			t.Fatalf("limit %d: RunUntil claimed drain with an event pending", limit)
		}
		if !atLimit {
			t.Fatalf("limit %d: event exactly at the limit did not run", limit)
		}
		if past {
			t.Fatalf("limit %d: event past the limit ran", limit)
		}
		if e.Now() != limit {
			t.Fatalf("limit %d: Now = %d", limit, e.Now())
		}
		if !e.RunUntil(limit + 1) {
			t.Fatalf("limit %d: queue did not drain", limit)
		}
	}
}

// TestScheduleAtNowInsideEvent: an event scheduling at Now() runs later the
// same cycle, after already-queued same-cycle events.
func TestScheduleAtNowInsideEvent(t *testing.T) {
	e := NewEngine()
	var got []string
	e.ScheduleHandler(10, fnHandler(func(Cycle) {
		got = append(got, "a")
		e.ScheduleHandler(e.Now(), fnHandler(func(Cycle) { got = append(got, "c") }))
	}))
	e.ScheduleHandler(10, fnHandler(func(Cycle) { got = append(got, "b") }))
	e.Run()
	if want := "abc"; len(got) != 3 || got[0]+got[1]+got[2] != want {
		t.Fatalf("same-cycle self-schedule order %v, want a b c", got)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
}

// TestDeterminismTwinEngines drives two engines with an identical
// self-expanding schedule and requires identical firing traces and step
// counts.
func TestDeterminismTwinEngines(t *testing.T) {
	trace := func() ([]Cycle, uint64) {
		e := NewEngine()
		var fired []Cycle
		state := uint64(0x2545F4914F6CDD1D)
		next := func() uint64 { // xorshift64: deterministic, no rand dep
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return state
		}
		var spawn func(depth int) fnHandler
		spawn = func(depth int) fnHandler {
			return func(Cycle) {
				fired = append(fired, e.Now())
				if depth >= 6 {
					return
				}
				n := int(next() % 3)
				for i := 0; i < n; i++ {
					e.ScheduleHandler(e.Now()+Cycle(next()%(2*WheelSpan)), spawn(depth+1))
				}
			}
		}
		for i := 0; i < 50; i++ {
			e.ScheduleHandler(Cycle(next()%500), spawn(0))
		}
		e.Run()
		return fired, e.nSteps
	}
	f1, s1 := trace()
	f2, s2 := trace()
	if s1 != s2 {
		t.Fatalf("Steps diverged: %d vs %d", s1, s2)
	}
	if len(f1) != len(f2) {
		t.Fatalf("firing counts diverged: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("firing order diverged at event %d: %d vs %d", i, f1[i], f2[i])
		}
	}
}

type countHandler struct{ n int }

func (h *countHandler) Fire(now Cycle) { h.n++ }

// TestScheduleHandlerZeroAlloc proves the steady-state zero-allocation
// contract: once the node pool is primed, scheduling and firing pre-bound
// handlers allocates nothing, on both the wheel and the far-heap paths.
func TestScheduleHandlerZeroAlloc(t *testing.T) {
	e := NewEngine()
	h := &countHandler{}
	// Prime: init the wheel, grow the node pool and the far heap.
	for i := 0; i < 100; i++ {
		e.ScheduleHandler(e.Now()+1, h)
		e.ScheduleHandler(e.Now()+WheelSpan+50, h)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleHandler(e.Now()+3, h)
		e.ScheduleHandler(e.Now()+WheelSpan+50, h)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state handler scheduling allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	e.ScheduleHandler(1, fnHandler(func(Cycle) {}))
	e.ScheduleHandler(2, fnHandler(func(Cycle) {}))
	if e.pending != 2 {
		t.Fatalf("pending = %d, want 2", e.pending)
	}
	e.Step()
	if e.pending != 1 {
		t.Fatalf("pending after one step = %d, want 1", e.pending)
	}
}
