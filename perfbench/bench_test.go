package main

import (
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"alloysim/internal/core"
	"alloysim/internal/experiments"
)

func loadRepoSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestMetricNameGrammar(t *testing.T) {
	for name, ok := range map[string]bool{
		"wall_s":                        true,
		"dramcache.lh-29.ns_per_access": true,
		"core.lat.mem_queue_cyc":        true,
		"9lives":                        true,
		"_hidden":                       false,
		".dot":                          false,
		"has space":                     false,
		"slash/name":                    false,
		"a23456789012345678901234567890123456789012345678901234567890abcd":  true,
		"a23456789012345678901234567890123456789012345678901234567890abcde": false,
	} {
		if got := nameRE.MatchString(name); got != ok {
			t.Errorf("name %q: grammar match %v, want %v", name, got, ok)
		}
	}
	spec := loadRepoSpec(t)
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json declares no metrics")
	}
}

// TestMetricsFileMatchesSpec keeps metrics.json, which records each
// metric's layer and the end-to-end metric it should move, in step with
// BENCHMARK.json.
func TestMetricsFileMatchesSpec(t *testing.T) {
	spec := loadRepoSpec(t)
	data, err := os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Workloads map[string]string `json:"workloads"`
		EndToEnd  []struct {
			metricSpec
			Layer string `json:"layer"`
		} `json:"end_to_end"`
		PerLayer []struct {
			metricSpec
			Layer string              `json:"layer"`
			Moves map[string][]string `json:"moves"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if meta.Workloads[w.Name] == "" {
			t.Errorf("metrics.json gives no reason for workload %s", w.Name)
		}
	}
	if len(meta.EndToEnd) != len(spec.EndToEnd) || len(meta.PerLayer) != len(spec.PerLayer) {
		t.Fatalf("metrics.json has %d+%d metrics, BENCHMARK.json %d+%d",
			len(meta.EndToEnd), len(meta.PerLayer), len(spec.EndToEnd), len(spec.PerLayer))
	}
	e2e := map[string]bool{}
	for i, m := range meta.EndToEnd {
		if m.metricSpec != spec.EndToEnd[i] || m.Layer == "" {
			t.Errorf("end-to-end metric %d: metrics.json %+v, BENCHMARK.json %+v", i, m, spec.EndToEnd[i])
		}
		e2e[m.Name] = true
	}
	for i, m := range meta.PerLayer {
		if m.metricSpec != spec.PerLayer[i] || m.Layer == "" {
			t.Errorf("per-layer metric %d: metrics.json %+v, BENCHMARK.json %+v", i, m, spec.PerLayer[i])
		}
		for target, wls := range m.Moves {
			if !e2e[target] {
				t.Errorf("%s moves unknown end-to-end metric %s", m.Name, target)
			}
			for _, wl := range wls {
				if !spec.hasWorkload(wl) {
					t.Errorf("%s names unknown workload %s", m.Name, wl)
				}
			}
		}
	}
}

// fakeWorkload stands in for a workload so the end-to-end metric set can
// be checked without running a sweep.
type fakeWorkload struct{}

func (fakeWorkload) rep(*bench) (time.Duration, uint64, error) { return time.Millisecond, 1 << 20, nil }
func (fakeWorkload) setup(*bench) (time.Duration, error)       { return time.Millisecond, nil }
func (fakeWorkload) traced(*bench) error                       { return nil }

// TestPrintedMetricsDeclared checks that the metrics an untraced and a
// traced run set are exactly the ones BENCHMARK.json declares, each with
// a unit.
func TestPrintedMetricsDeclared(t *testing.T) {
	spec := loadRepoSpec(t)
	b := &bench{ctx: context.Background(), seed: 1, budget: time.Millisecond, metrics: newMetricSet()}
	if err := b.untraced(fakeWorkload{}); err != nil {
		t.Fatal(err)
	}
	checkRendered(t, b.metrics, spec.EndToEnd)

	st := &simStats{sims: 1, instr: 1, wall: time.Second, warm: time.Second, measure: time.Second,
		refs: 1, events: 1, below: 1, l3Hits: 1, l3Accesses: 2, lat: latSum{n: 1, total: 1}}
	b = &bench{ctx: context.Background(), seed: 1, metrics: newMetricSet()}
	if err := b.setLayerMetrics(layerInputs{untraced: st, traced: st}); err != nil {
		t.Fatal(err)
	}
	checkRendered(t, b.metrics, spec.PerLayer)
}

func checkRendered(t *testing.T, m *metricSet, want []metricSpec) {
	t.Helper()
	out, err := m.render(want)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range out {
		if v.Unit == "" {
			t.Errorf("metric %s has no unit", name)
		}
	}
}

// TestReplayDeterministic replays a tiny captured stream twice: every
// count the harness reports must repeat exactly.
func TestReplayDeterministic(t *testing.T) {
	counts := func() *replayStats {
		st := newReplayStats()
		if err := replay(pointConfig("lbm_r", 3), 2000, st, nil, -1); err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := counts(), counts()
	if a.below == 0 || a.trace.calls != 16000 || a.l3.calls != 16000 {
		t.Fatalf("unexpected replay counts: below=%d trace=%d l3=%d", a.below, a.trace.calls, a.l3.calls)
	}
	// Host time and allocations vary; calls and outcomes must not.
	type key struct{ calls, num, den uint64 }
	flat := func(s *replayStats) map[string]key {
		k := func(l layerStat) key { return key{l.calls, l.num, l.den} }
		out := map[string]key{"trace": k(s.trace), "l3": k(s.l3), "offchip": k(s.offchip), "stacked": k(s.stacked)}
		for n, l := range s.orgs {
			out["org "+n] = k(*l)
		}
		for n, l := range s.preds {
			out["pred "+n] = k(*l)
		}
		return out
	}
	if fa, fb := flat(a), flat(b); !reflect.DeepEqual(fa, fb) {
		t.Fatalf("replay counts differ between identical runs:\n%v\n%v", fa, fb)
	}
	for _, k := range []string{"perfect", "missmap"} {
		if ok := a.preds[k]; ok.num != ok.den {
			t.Errorf("oracle predictor %s scored %d/%d", k, ok.num, ok.den)
		}
	}
}

// TestTracedSimMatchesUntraced checks that the counting generators and
// attached observability reproduce the untraced core.Result, that the
// warm-up boundary is found, and that a different result is reported.
func TestTracedSimMatchesUntraced(t *testing.T) {
	cfg := core.DefaultConfig("mcf_r")
	cfg.Cores = 2
	cfg.InstructionsPerCore = 50_000
	cfg.WarmupRefs = 3_000
	cfg.GapScale = 2
	cfg.Seed = 7
	ctx := context.Background()
	var stU, stT simStats
	want, err := runSim(ctx, cfg, &stU)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracedSim(ctx, cfg, want, &stT, newSpanLog(), -1); err != nil {
		t.Fatal(err)
	}
	if stT.refs <= cfg.WarmupRefs*uint64(cfg.Cores) || stT.warm <= 0 || stT.measure <= 0 || stT.events == 0 || stT.lat.n == 0 {
		t.Fatalf("traced run measured refs=%d warm=%v measure=%v events=%d breakdowns=%d",
			stT.refs, stT.warm, stT.measure, stT.events, stT.lat.n)
	}
	want.ExecCycles++
	if err := tracedSim(ctx, cfg, want, &stT, nil, -1); err == nil {
		t.Fatal("tracedSim accepted a result that differs from the untraced one")
	}
}

func TestGoldenMismatch(t *testing.T) {
	res := core.Result{Workload: "mcf_r", Design: core.DesignAlloy, ExecCycles: 12.5, Instructions: 3}
	enc, _ := json.MarshalIndent(res, "", "  ")
	if p := goldenMismatch(enc, res); p != "" {
		t.Fatalf("identical result reported: %s", p)
	}
	res.Instructions++
	if goldenMismatch(enc, res) == "" {
		t.Fatal("changed result not reported")
	}
	if goldenMismatch(nil, res) == "" {
		t.Fatal("missing golden entry not reported")
	}
}

// TestPointLog feeds the handler the records the Runner logs and checks
// that only completed points are kept, under the current experiment.
func TestPointLog(t *testing.T) {
	pt := experiments.Point{Workload: "mcf_r", Design: core.DesignAlloy, Predictor: core.PredMAPI, CacheMB: 256}
	h := &pointLog{spans: newSpanLog()}
	log := slog.New(h)
	h.enter("fig8", 0)
	log.Info("point complete", slog.String("point", pt.String()), slog.Int("attempt", 1), slog.Float64("wall_s", 0.25))
	log.Debug("point joined inflight leader", slog.String("point", pt.String()))
	log.Warn("point retrying", slog.String("point", pt.String()))
	h.enter("fig9", 1)
	recs := h.records("fig8")
	if len(recs) != 1 || recs[0].wall != 0.25 || len(h.records("")) != 1 || len(h.records("fig9")) != 0 {
		t.Fatalf("records: %+v", h.records(""))
	}
	got, err := parsePoint(recs[0].point)
	if err != nil || got != pt {
		t.Fatalf("parsePoint(%q) = %+v, %v", recs[0].point, got, err)
	}
	if _, err := parsePoint("mcf_r|alloy"); err == nil {
		t.Fatal("malformed point accepted")
	}
}
