package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"alloysim/internal/core"
	"alloysim/internal/experiments"
)

// sweepWorkload runs registered experiments on one experiments.Runner,
// the path cmd/paperfigs takes, under the Params results/ was made with.
type sweepWorkload struct {
	ids []string
}

// parallelism bounds the Runner's concurrent simulations: two, or one on
// a single-CPU host, so the sweep does the same work everywhere.
func parallelism() int { return min(2, runtime.NumCPU()) }

// sweepParams are experiments.DefaultParams at the run's seed. The
// benchmark sets no shard count.
func sweepParams(seed uint64, logger *slog.Logger) experiments.Params {
	p := experiments.DefaultParams()
	p.Seed = seed
	p.Parallelism = parallelism()
	p.Logger = logger
	return p
}

// newSweep is the sweep's set-up: Runner construction and experiment
// lookup.
func (s *sweepWorkload) newSweep(p experiments.Params) (*experiments.Runner, []experiments.Experiment, error) {
	r := experiments.NewRunner(p)
	exps := make([]experiments.Experiment, len(s.ids))
	for i, id := range s.ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, nil, fmt.Errorf("experiment %q is not registered", id)
		}
		exps[i] = e
	}
	return r, exps, nil
}

func (s *sweepWorkload) setup(b *bench) (time.Duration, error) {
	t0 := time.Now()
	_, _, err := s.newSweep(sweepParams(b.seed, nil))
	return time.Since(t0), err
}

// sweepRep is one execution of the sweep.
type sweepRep struct {
	runner  *experiments.Runner
	metrics experiments.Metrics // the runner's counters right after the sweep
	log     *pointLog
	wall    time.Duration
	alloc   uint64
	out     map[string]string // experiment ID -> output, headed as in results/
	errs    map[string]error
	expWall map[string]time.Duration
}

// run executes the sweep once. With spans it records a span per
// experiment and per simulated point.
func (s *sweepWorkload) run(b *bench, spans *spanLog, parent int) (*sweepRep, error) {
	log := &pointLog{spans: spans}
	r, exps, err := s.newSweep(sweepParams(b.seed, slog.New(log)))
	if err != nil {
		return nil, err
	}
	rep := &sweepRep{
		runner: r, log: log,
		out: map[string]string{}, errs: map[string]error{}, expWall: map[string]time.Duration{},
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	for _, e := range exps {
		var out strings.Builder
		fmt.Fprintf(&out, "%s: %s\n\n", e.ID, e.Title)
		id := spans.begin("exp "+e.ID, parent)
		log.enter(e.ID, id)
		te := time.Now()
		rep.errs[e.ID] = e.Run(b.ctx, r, &out)
		rep.expWall[e.ID] = time.Since(te)
		spans.finish(id)
		rep.out[e.ID] = out.String()
	}
	rep.wall = time.Since(t1)
	runtime.ReadMemStats(&m1)
	rep.alloc = m1.TotalAlloc - m0.TotalAlloc
	rep.metrics = r.Metrics()
	return rep, nil
}

func (s *sweepWorkload) rep(b *bench) (time.Duration, uint64, error) {
	rep, err := s.run(b, nil, -1)
	if err != nil {
		return 0, 0, err
	}
	s.check(b, rep, nil)
	return rep.wall, rep.alloc, nil
}

var nonFinite = regexp.MustCompile(`\b(NaN|[+-]?Inf)\b`)

// check counts one operation per experiment. An experiment fails if it
// errors, prints a non-finite number, simulates a point that breaks the
// conservation check, differs from results/<id>.txt at seed 1, or (for a
// traced rep) differs from the untraced rep's output.
func (s *sweepWorkload) check(b *bench, rep *sweepRep, untraced *sweepRep) {
	for _, id := range s.ids {
		var problems []string
		if err := rep.errs[id]; err != nil {
			problems = append(problems, err.Error())
		}
		out := rep.out[id]
		if nonFinite.MatchString(out) {
			problems = append(problems, "output contains a non-finite number")
		}
		problems = append(problems, rep.conservation(b.ctx, id)...)
		if b.seed == 1 {
			want, err := os.ReadFile(filepath.Join(b.root, "results", id+".txt"))
			switch {
			case err != nil:
				problems = append(problems, err.Error())
			case string(want) != out:
				problems = append(problems, fmt.Sprintf("output differs from results/%s.txt", id))
			}
		}
		if untraced != nil && untraced.out[id] != out {
			problems = append(problems, "traced output differs from the untraced output")
		}
		b.op(id, problems)
	}
}

// conservation re-reads from the runner's memo every point experiment id
// simulated and applies the simulated conservation check to it. Memo
// reads after the sweep do not touch the counters in rep.metrics.
func (rep *sweepRep) conservation(ctx context.Context, id string) []string {
	var st simStats
	for _, rec := range rep.log.records(id) {
		pt, err := parsePoint(rec.point)
		if err != nil {
			return []string{err.Error()}
		}
		res, err := rep.runner.Run(ctx, pt.Workload, pt.Design, pt.Predictor, pt.CacheMB)
		if err != nil {
			return []string{err.Error()}
		}
		st.record(res)
	}
	return st.resultCheck
}

// parsePoint reads experiments.Point.String's "workload|design|pred|MB".
func parsePoint(s string) (experiments.Point, error) {
	f := strings.Split(s, "|")
	if len(f) != 4 {
		return experiments.Point{}, fmt.Errorf("malformed point %q", s)
	}
	mb, err := strconv.ParseUint(f[3], 10, 64)
	if err != nil {
		return experiments.Point{}, fmt.Errorf("malformed point %q: %w", s, err)
	}
	return experiments.Point{Workload: f[0], Design: core.Design(f[1]), Predictor: core.PredictorKind(f[2]), CacheMB: mb}, nil
}

// probeConfig is one sweep point simulated directly through core: Alloy
// with its default predictor at the Runner's Params. The Runner builds
// its systems internally, so the traced run measures core's warm-up and
// measurement split on these instead.
func probeConfig(wl string, seed uint64) core.Config {
	p := sweepParams(seed, nil)
	cfg := core.DefaultConfig(wl)
	cfg.Design = core.DesignAlloy
	cfg.Scale = p.Scale
	cfg.InstructionsPerCore = p.InstructionsPerCore
	cfg.WarmupRefs = p.WarmupRefs
	cfg.Cores = p.Cores
	cfg.GapScale = p.GapScale
	cfg.Seed = p.Seed
	return cfg
}

func (s *sweepWorkload) traced(b *bench) error {
	u := b.spans.begin("untraced sweep", 0)
	c0, t0 := cpuTime(), time.Now()
	untraced, err := s.run(b, nil, -1)
	if err != nil {
		return err
	}
	cpuFrac := (cpuTime() - c0).Seconds() / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
	b.spans.finish(u)
	s.check(b, untraced, nil)

	id := b.spans.begin("sweep", 0)
	rep, err := s.run(b, b.spans, id)
	b.spans.finish(id)
	if err != nil {
		return err
	}
	s.check(b, rep, untraced)

	var stU, stT simStats
	probe := b.spans.begin("core probe", 0)
	for _, wl := range experiments.DetailedWorkloads() {
		cfg := probeConfig(wl, b.seed)
		res, err := runSim(b.ctx, cfg, &stU)
		if err == nil {
			err = tracedSim(b.ctx, cfg, res, &stT, b.spans, probe)
		}
		problems := append(stU.resultCheck, stT.resultCheck...)
		if err != nil {
			problems = append(problems, err.Error())
		}
		b.op("probe "+wl, problems)
		stU.resultCheck, stT.resultCheck = nil, nil
	}
	b.spans.finish(probe)

	var walls []float64
	for _, rec := range rep.log.records("") {
		walls = append(walls, rec.wall)
	}
	return b.setLayerMetrics(layerInputs{
		untraced: &stU, traced: &stT,
		runner: rep.metrics, pointWalls: walls, expWalls: rep.expWall,
		busyFrac: rep.metrics.SimWall.Seconds() / (rep.wall.Seconds() * float64(parallelism())),
		cpuFrac:  cpuFrac,
		overhead: rep.wall.Seconds()/untraced.wall.Seconds() - 1,
	})
}

// pointLog is an slog.Handler on Params.Logger that keeps the Runner's
// "point complete" records: which points a sweep simulated, for which
// experiment, and how long each took. With spans it also records each
// point as a span under its experiment's span.
type pointLog struct {
	spans *spanLog

	mu      sync.Mutex
	exp     string
	expSpan int
	recs    []pointRec
}

type pointRec struct {
	exp, point string
	wall       float64
}

// enter marks the start of an experiment; records that follow belong to it.
func (h *pointLog) enter(exp string, span int) {
	h.mu.Lock()
	h.exp, h.expSpan = exp, span
	h.mu.Unlock()
}

// records returns the records of one experiment, or all for "".
func (h *pointLog) records(exp string) []pointRec {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []pointRec
	for _, r := range h.recs {
		if exp == "" || r.exp == exp {
			out = append(out, r)
		}
	}
	return out
}

func (h *pointLog) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelInfo }

func (h *pointLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "point complete" {
		return nil
	}
	end := time.Now()
	rec := pointRec{}
	r.Attrs(func(a slog.Attr) bool {
		switch a.Key {
		case "point":
			rec.point = a.Value.String()
		case "wall_s":
			if a.Value.Kind() == slog.KindFloat64 {
				rec.wall = a.Value.Float64()
			}
		}
		return true
	})
	h.mu.Lock()
	rec.exp = h.exp
	h.recs = append(h.recs, rec)
	parent := h.expSpan
	h.mu.Unlock()
	h.spans.add("point "+rec.point, parent, end.Add(-time.Duration(rec.wall*float64(time.Second))), end)
	return nil
}

func (h *pointLog) WithAttrs([]slog.Attr) slog.Handler { return h }

func (h *pointLog) WithGroup(string) slog.Handler { return h }
