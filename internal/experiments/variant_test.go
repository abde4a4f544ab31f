package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"alloysim/internal/core"
)

// TestVariantCollapsesToDefault checks every collapse rule of normalize
// against the simulator: the explicit spelling of a default and the
// default spelling must share one memo key and produce the same
// core.Result. Without this the memo sharing between the ablation rows
// and the plain points is unverified.
func TestVariantCollapsesToDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickParams simulations in -short mode")
	}
	p := QuickParams()
	p.DisableFlight = true
	r := NewRunner(p)
	ctx := context.Background()
	plain := Point{Workload: "lbm_r", Design: core.DesignAlloy}
	want, err := r.simulatePoint(ctx, r.normalize(plain))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Variant{
		{MLP: 2},
		{WriteBuffer: 64},
		{StackedChannels: 4},
		{L3Policy: "dip"},
		{Seed: p.Seed},
	} {
		explicit := plain
		explicit.Variant = v
		if got := r.normalize(explicit); got != r.normalize(plain) {
			t.Errorf("normalize(%s) = %s, want the plain point", explicit.label(), got.label())
		}
		// Simulate the explicit spelling itself, not its normalized key.
		got, err := r.simulatePoint(ctx, explicit)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result differs from the default spelling:\n%+v\nvs\n%+v", v, got, want)
		}
	}
}

// TestVariantNormalizeKeepsDeltas: values off the defaults, and every
// DCPolicy, stay in the key.
func TestVariantNormalizeKeepsDeltas(t *testing.T) {
	r := NewRunner(microParams())
	for _, v := range []Variant{
		{MLP: 4}, {WriteBuffer: 8}, {StackedChannels: 2}, {L3Policy: "lru"},
		{DCPolicy: "dip"}, {Seed: 3},
	} {
		pt := Point{Workload: "mcf_r", Design: core.DesignLH, CacheMB: 256, Variant: v}
		if got := r.normalize(pt); got != pt {
			t.Errorf("normalize(%s) = %s, want it unchanged", pt.label(), got.label())
		}
	}
}

// TestAblationRunnerAccounting runs abl-mlp and abl-wbuf against a
// counting simulate hook: the two grids hold exactly 140 distinct
// configurations (3 non-default rows each plus the shared default row,
// times 10 workloads times Alloy and the baseline), each is simulated
// once, and the runner's PointsRun agrees.
func TestAblationRunnerAccounting(t *testing.T) {
	r := NewRunner(DefaultParams())
	var mu sync.Mutex
	runs := map[string]int{}
	var repeats []string
	r.simulate = func(_ context.Context, pt Point) (core.Result, error) {
		fp := r.pointConfig(pt).Fingerprint()
		mu.Lock()
		if runs[fp]++; runs[fp] > 1 {
			repeats = append(repeats, pt.label())
		}
		mu.Unlock()
		cycles := 1000.0
		if pt.Design == core.DesignNone {
			cycles = 1500
		}
		return core.Result{ExecCycles: cycles}, nil
	}
	for _, id := range []string{"abl-mlp", "abl-wbuf"} {
		e, _ := ByID(id)
		if err := e.Run(context.Background(), r, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if len(runs) != 140 {
		t.Errorf("%d distinct configurations simulated, want 140", len(runs))
	}
	if len(repeats) > 0 {
		t.Errorf("configurations simulated more than once: %v", repeats)
	}
	if m := r.Metrics(); m.PointsRun != uint64(len(runs)) {
		t.Errorf("PointsRun = %d, want %d", m.PointsRun, len(runs))
	}
}

// TestVariantPointsConserve checks the conservation law on variant
// points themselves (perfbench re-reads only the base point of a log
// record): every below-L3 read of a cached design is predicted exactly
// once, under every knob the ablation, seed and policy experiments turn.
func TestVariantPointsConserve(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickParams simulations in -short mode")
	}
	p := QuickParams()
	p.DisableFlight = true
	p.Parallelism = 2
	r := NewRunner(p)
	var pts []Point
	for _, v := range []Variant{
		{MLP: 1}, {MLP: 8}, {WriteBuffer: 8}, {WriteBuffer: 256},
		{StackedChannels: 1}, {StackedChannels: 8},
		{L3Policy: "lru"}, {L3Policy: "random"}, {Seed: 3},
	} {
		pts = append(pts, Point{Workload: "lbm_r", Design: core.DesignAlloy, Variant: v})
	}
	for _, d := range []core.Design{core.DesignLH, core.DesignGemini} {
		pts = append(pts, Point{Workload: "lbm_r", Design: d, Variant: Variant{DCPolicy: "brrip"}})
	}
	ctx := context.Background()
	if err := r.Prefetch(ctx, pts); err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		res, err := r.RunPoint(ctx, pt)
		if err != nil {
			t.Fatal(err)
		}
		if res.BelowReads == 0 || res.Accuracy.Total() != res.BelowReads {
			t.Errorf("%s: %d predictions for %d below-L3 reads", pt.label(), res.Accuracy.Total(), res.BelowReads)
		}
	}
}

// TestCheckpointRoundTripsVariants: variant points survive the
// checkpoint file and a resumed runner simulates nothing, while plain
// entries keep the pre-variant layout (no "variant" key).
func TestCheckpointRoundTripsVariants(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	pts := []Point{
		{Workload: "mcf_r", Design: core.DesignAlloy},
		{Workload: "mcf_r", Design: core.DesignAlloy, Variant: Variant{WriteBuffer: 8}},
		{Workload: "mcf_r", Design: core.DesignLH, Variant: Variant{DCPolicy: "srrip", Seed: 2}},
	}
	fake := func(_ context.Context, pt Point) (core.Result, error) {
		return core.Result{Workload: pt.Workload, ExecCycles: float64(len(pt.label()))}, nil
	}
	r1 := NewRunner(microParams())
	r1.simulate = fake
	if _, err := r1.EnableCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if err := r1.Prefetch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(microParams())
	r2.simulate = func(context.Context, Point) (core.Result, error) {
		t.Fatal("resumed runner simulated a point")
		return core.Result{}, nil
	}
	if restored, err := r2.EnableCheckpoint(path); err != nil || restored != len(pts) {
		t.Fatalf("restored %d points (err %v), want %d", restored, err, len(pts))
	}
	for _, pt := range pts {
		want, _ := fake(context.Background(), r1.normalize(pt))
		got, err := r2.RunPoint(context.Background(), pt)
		if err != nil || got != want {
			t.Fatalf("%s: restored %+v (err %v), want %+v", pt.label(), got, err, want)
		}
	}

	var cf struct {
		Entries []json.RawMessage `json:"entries"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &cf); err != nil {
		t.Fatal(err)
	}
	plain := 0
	for _, e := range cf.Entries {
		if !bytes.Contains(e, []byte(`"variant"`)) {
			plain++
		}
	}
	if plain != 1 {
		t.Fatalf("%d entries without a variant key, want 1", plain)
	}
}
