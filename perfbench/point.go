package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"alloysim/internal/core"
)

// pointWorkload runs two long single simulations back to back through
// core.NewSystem and RunContext: only the per-access hot path, with no
// Runner, no parallelism and no shared warm-up.
type pointWorkload struct{}

// pointWorkloads are the point simulations: a read-dominated pointer
// chase and a write-heavy stream.
var pointWorkloads = []string{"mcf_r", "lbm_r"}

// pointInstructions is the measured budget per core of each point
// simulation, sized so that one repetition of both takes a few seconds
// and a run fits several repetitions.
const pointInstructions = 5_000_000

// goldenPath holds the point workload's seed-1 results, relative to the
// repository root; -write-golden rewrites it.
const goldenPath = "perfbench/golden/point-seed1.json"

// pointConfig is core.DefaultConfig with Alloy and MAP-I.
func pointConfig(wl string, seed uint64) core.Config {
	cfg := core.DefaultConfig(wl)
	cfg.Design = core.DesignAlloy
	cfg.Predictor = core.PredMAPI
	cfg.InstructionsPerCore = pointInstructions
	cfg.Seed = seed
	return cfg
}

func (pointWorkload) setup(b *bench) (time.Duration, error) {
	t0 := time.Now()
	for _, wl := range pointWorkloads {
		if _, err := core.NewSystem(pointConfig(wl, b.seed)); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// sims runs the point simulations once untraced, counting each as an
// operation: it fails if it errors, breaks the conservation check, or at
// seed 1 differs from the golden result.
func (pointWorkload) sims(b *bench, st *simStats) ([]core.Result, error) {
	var golden map[string]json.RawMessage
	if b.seed == 1 {
		data, err := os.ReadFile(filepath.Join(b.root, goldenPath))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			return nil, fmt.Errorf("%s: %w", goldenPath, err)
		}
	}
	results := make([]core.Result, len(pointWorkloads))
	for i, wl := range pointWorkloads {
		before := len(st.resultCheck)
		res, err := runSim(b.ctx, pointConfig(wl, b.seed), st)
		problems := append([]string(nil), st.resultCheck[before:]...)
		if err != nil {
			problems = append(problems, err.Error())
		} else if golden != nil {
			if p := goldenMismatch(golden[wl], res); p != "" {
				problems = append(problems, p)
			}
		}
		b.op(wl, problems)
		results[i] = res
	}
	return results, nil
}

// goldenMismatch compares a result with its golden encoding.
func goldenMismatch(want json.RawMessage, res core.Result) string {
	got, err := json.Marshal(res)
	if err != nil {
		return err.Error()
	}
	var w bytes.Buffer
	if err := json.Compact(&w, want); err != nil {
		return fmt.Sprintf("no golden result: %v", err)
	}
	if !bytes.Equal(got, w.Bytes()) {
		return fmt.Sprintf("result differs from %s:\n  got:  %s\n  want: %s", goldenPath, got, w.Bytes())
	}
	return ""
}

func (w pointWorkload) rep(b *bench) (time.Duration, uint64, error) {
	var st simStats
	_, err := w.sims(b, &st)
	return st.wall, st.allocBytes, err
}

func (w pointWorkload) traced(b *bench) error {
	var stU, stT simStats
	u := b.spans.begin("untraced point", 0)
	c0, t0 := cpuTime(), time.Now()
	results, err := w.sims(b, &stU)
	if err != nil {
		return err
	}
	cpuFrac := (cpuTime() - c0).Seconds() / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
	b.spans.finish(u)

	id := b.spans.begin("point", 0)
	for i, wl := range pointWorkloads {
		before := len(stT.resultCheck)
		err := tracedSim(b.ctx, pointConfig(wl, b.seed), results[i], &stT, b.spans, id)
		problems := append([]string(nil), stT.resultCheck[before:]...)
		if err != nil {
			problems = append(problems, err.Error())
		}
		b.op("traced "+wl, problems)
	}
	b.spans.finish(id)

	return b.setLayerMetrics(layerInputs{
		untraced: &stU, traced: &stT,
		cpuFrac:  cpuFrac,
		overhead: (stT.warm+stT.measure).Seconds()/stU.wall.Seconds() - 1,
	})
}

// writeGolden records the point workload's seed-1 results.
func (b *bench) writeGolden() error {
	out := map[string]core.Result{}
	for _, wl := range pointWorkloads {
		sys, err := core.NewSystem(pointConfig(wl, 1))
		if err != nil {
			return err
		}
		if out[wl], err = sys.RunContext(b.ctx); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.root, goldenPath), append(data, '\n'), 0o644)
}
