package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alloysim/internal/core"
	"alloysim/internal/obs"
)

// tapeParams is microParams with a warm-up long enough to fill the L3.
func tapeParams() Params {
	p := microParams()
	p.WarmupRefs = 3_000
	p.DisableFlight = true
	return p
}

// livePoints simulates each point on a runner that never prefetches, so
// every warm-up runs live.
func livePoints(t *testing.T, p Params, pts []Point) []core.Result {
	t.Helper()
	r := NewRunner(p)
	out := make([]core.Result, len(pts))
	for i, pt := range pts {
		res, err := r.RunPoint(context.Background(), pt)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	if m := r.Metrics(); m.WarmBuilds != 0 || m.WarmRestores != 0 {
		t.Fatalf("RunPoint outside a Prefetch used warm tapes: %+v", m)
	}
	return out
}

// TestPrefetchRestoresWarmTapes: a Prefetch records one tape per warm key
// (workload, seed, L3 policy) with at least minTapePoints points to
// simulate, restores every such point from it, matches the live results
// exactly, and holds no tape once it returns.
func TestPrefetchRestoresWarmTapes(t *testing.T) {
	p := tapeParams()
	lru := Variant{L3Policy: "lru"}
	pts := []Point{
		{Workload: "mcf_r", Design: core.DesignNone},
		{Workload: "lbm_r", Design: core.DesignNone, Variant: lru},
		{Workload: "mcf_r", Design: core.DesignAlloy},
		{Workload: "mcf_r", Design: core.DesignLH, Variant: Variant{MLP: 4}},
		{Workload: "lbm_r", Design: core.DesignSRAMTag32, Variant: Variant{L3Policy: "lru", WriteBuffer: 8}},
		{Workload: "mcf_r", Design: core.DesignSRAMTag32, Variant: Variant{WriteBuffer: 8}},
		{Workload: "lbm_r", Design: core.DesignAlloy, Variant: lru},
		{Workload: "mcf_r", Design: core.DesignIdealLO, CacheMB: 64},
		{Workload: "lbm_r", Design: core.DesignLH, Variant: lru},
		{Workload: "lbm_r", Design: core.DesignIdealLO, Variant: lru},
		{Workload: "lbm_r", Design: core.DesignNone},                             // two lbm_r points at DIP: below
		{Workload: "lbm_r", Design: core.DesignAlloy},                            // minTapePoints, so they warm live
		{Workload: "mcf_r", Design: core.DesignAlloy, Variant: Variant{Seed: 9}}, // alone: warms live
	}
	r := NewRunner(p)
	if err := r.Prefetch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.WarmBuilds != 2 || m.WarmRestores != 10 {
		t.Errorf("warm builds %d, restores %d; want 2 (mcf_r, lbm_r/lru) and 10", m.WarmBuilds, m.WarmRestores)
	}
	r.mu.Lock()
	left := len(r.lazy.warm)
	r.mu.Unlock()
	if left != 0 {
		t.Errorf("%d warm slots outlive the Prefetch", left)
	}
	want := livePoints(t, p, pts)
	for i, pt := range pts {
		got, err := r.RunPoint(context.Background(), pt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: restored result differs from the live one", pt.label())
		}
	}
	// A second Prefetch of memoized points builds nothing.
	if err := r.Prefetch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics().WarmBuilds; got != 2 {
		t.Errorf("re-prefetching memoized points built tapes: %d builds, want 2", got)
	}
}

// TestPrefetchGroupsByWarmKey: points launch grouped by warm key, groups
// in first-occurrence order, while errors stay at their input position.
func TestPrefetchGroupsByWarmKey(t *testing.T) {
	p := microParams()
	p.Parallelism = 1
	r := NewRunner(p)
	var mu sync.Mutex
	var launched []string
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		mu.Lock()
		launched = append(launched, pt.Workload+"/"+string(pt.Design))
		mu.Unlock()
		if pt.Design == core.DesignLH {
			return core.Result{}, permanentError{errors.New("boom")}
		}
		return core.Result{ExecCycles: 1}, nil
	}
	pts := []Point{
		{Workload: "mcf_r", Design: core.DesignNone},
		{Workload: "lbm_r", Design: core.DesignNone},
		{Workload: "mcf_r", Design: core.DesignAlloy},
		{Workload: "lbm_r", Design: core.DesignLH},
		{Workload: "mcf_r", Design: core.DesignLH},
	}
	err := r.Prefetch(context.Background(), pts)
	want := []string{"mcf_r/none", "mcf_r/alloy", "mcf_r/lh-29", "lbm_r/none", "lbm_r/lh-29"}
	if !reflect.DeepEqual(launched, want) {
		t.Errorf("launch order %v, want %v", launched, want)
	}
	msg := err.Error()
	lbm, mcf := strings.Index(msg, "lbm_r|lh-29"), strings.Index(msg, "mcf_r|lh-29")
	if lbm < 0 || mcf < 0 || lbm > mcf {
		t.Errorf("errors not joined in input order: %q", msg)
	}
}

// TestRunLeaderCancellationWarmTapeDoesNotPoisonWaiters: the tape
// builder's context is cancelled while other points wait for its tape.
// The cancellation belongs to the builder's point alone: a waiter with a
// live context records the tape instead, and every waiter's result
// equals its live-warm-up result.
func TestRunLeaderCancellationWarmTapeDoesNotPoisonWaiters(t *testing.T) {
	const waiters = 4
	p := tapeParams()
	p.Parallelism = waiters + 1
	r := NewRunner(p)
	var builds atomic.Int32
	leaderStarted := make(chan struct{})
	r.recordWarm = func(ctx context.Context, cfg core.Config) (*core.WarmTape, error) {
		if builds.Add(1) == 1 {
			close(leaderStarted)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return core.RecordWarm(ctx, cfg)
	}
	designs := []core.Design{core.DesignNone, core.DesignAlloy, core.DesignLH, core.DesignSRAMTag32, core.DesignIdealLO}
	pts := make([]Point, len(designs))
	for i, d := range designs {
		pts[i] = Point{Workload: "mcf_r", Design: d}
	}
	_, keys, held := r.holdWarm(pts)

	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := r.RunPoint(lctx, pts[0])
		leaderErr <- err
	}()
	<-leaderStarted

	results := make([]core.Result, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = r.RunPoint(context.Background(), pts[i+1])
		}()
	}
	// Cancel only once every waiter is parked in warmTape beside the
	// builder.
	waitInFunc(t, "(*Runner).warmTape", waiters+1)
	lcancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled builder returned %v, want its own Canceled", err)
	}
	wg.Wait()
	want := livePoints(t, p, pts[1:])
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %s poisoned with %v", pts[i+1].label(), errs[i])
		}
		if !reflect.DeepEqual(results[i], want[i]) {
			t.Errorf("waiter %s: restored result differs from the live one", pts[i+1].label())
		}
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("%d tape builds, want 2 (cancelled builder + takeover)", n)
	}
	if m := r.Metrics(); m.WarmBuilds != 1 || m.WarmRestores != waiters || m.Failures != 0 {
		t.Errorf("metrics %+v: want 1 warm build, %d restores, 0 failures", m, waiters)
	}
	for i := range pts {
		r.releaseWarm(keys[i], held[i])
	}
	if n := len(r.lazy.warm); n != 0 {
		t.Errorf("%d warm slots left after every hold was released", n)
	}
}

// waitInFunc polls the goroutine stacks until n of them are inside fn.
func waitInFunc(t *testing.T, fn string, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second) //alloyvet:allow(determinism) test-harness poll deadline, not simulated time
	for {
		stacks := string(buf[:runtime.Stack(buf, true)])
		got := 0
		for _, g := range strings.Split(stacks, "\n\n") {
			if strings.Contains(g, fn) {
				got++
			}
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) { //alloyvet:allow(determinism) test-harness poll deadline, not simulated time
			t.Fatalf("only %d of %d goroutines reached %s", got, n, fn)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFig8Fig9WarmBuilds pins the warm-tape accounting of the fig-sweep
// benchmark's experiments: one tape per detailed workload per Prefetch
// (fig8 and fig9 prefetch once each), and every simulation restored.
func TestFig8Fig9WarmBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("260 simulations in -short mode")
	}
	p := microParams()
	p.DisableFlight = true
	r := NewRunner(p)
	for _, id := range []string{"fig8", "fig9"} {
		e, _ := ByID(id)
		if err := e.Run(context.Background(), r, new(bytes.Buffer)); err != nil {
			t.Fatal(err)
		}
	}
	m := r.Metrics()
	if m.PointsRun != 260 || m.WarmBuilds != 20 || m.WarmRestores != 260 {
		t.Fatalf("simulations %d, warm builds %d, restores %d; want 260, 20, 260", m.PointsRun, m.WarmBuilds, m.WarmRestores)
	}
}

// TestRenderFlightAllocatesOnlyTheDump bounds the bytes allocated per
// retained flight dump: rendering into a reused buffer allocates the
// exact-size copy and little else, where appending into a fresh slice
// allocated four to five times the dump.
func TestRenderFlightAllocatesOnlyTheDump(t *testing.T) {
	r := NewRunner(QuickParams())
	cfg := r.pointConfig(Point{Workload: "mcf_r", Design: core.DesignAlloy})
	cfg.InstructionsPerCore = 100_000
	cfg.WarmupRefs = 2_000
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr := obs.NewFlightRecorder(64, 4096, 256)
	sys.EnableFlightRecorder(fr)
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	want := fr.AppendJSON(nil)
	if len(want) < 8<<10 {
		t.Fatalf("dump is only %d bytes; the bound needs a realistic dump", len(want))
	}
	if got := r.renderFlight(fr); !bytes.Equal(got, want) || cap(got) != len(got) {
		t.Fatalf("renderFlight: %d bytes (cap %d), want AppendJSON's %d bytes at exact capacity", len(got), cap(got), len(want))
	}
	const n = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		r.renderFlight(fr)
	}
	runtime.ReadMemStats(&m1)
	perDump := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	if limit := 1.5 * float64(len(want)); perDump > limit {
		t.Fatalf("renderFlight allocates %.0f bytes per %d-byte dump (limit %.0f)", perDump, len(want), limit)
	}
}
