// Package experiments defines one registered experiment per table and
// figure in the paper's evaluation, and the Runner that executes the
// underlying simulations with memoization (the baseline run of a workload
// is shared by every design comparison).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"alloysim/internal/core"
	"alloysim/internal/cpu"
	"alloysim/internal/dram"
	"alloysim/internal/obs"
	"alloysim/internal/stats"
	"alloysim/internal/trace"
)

// Params sets the global simulation scale for all experiments.
type Params struct {
	// Scale divides all capacities and footprints (see core.Config.Scale).
	Scale uint64
	// InstructionsPerCore is the measured budget per core.
	InstructionsPerCore uint64
	// WarmupRefs per core before measurement.
	WarmupRefs uint64
	// Cores in the rate-mode system.
	Cores int
	// CacheMB is the paper-scale DRAM-cache size in MB (default 256).
	CacheMB uint64
	// GapScale multiplies workload instruction gaps (intensity calibration).
	GapScale uint32
	// Seed perturbs the generators.
	Seed uint64
	// Parallelism bounds concurrent simulations during Prefetch (each
	// simulation is single-threaded and independent). Zero means
	// runtime.NumCPU.
	Parallelism int
	// Retries is how many times a failed point is re-attempted before the
	// failure is recorded as final. Configuration errors and parent-context
	// cancellation are never retried; per-point timeouts are.
	Retries int
	// PointTimeout bounds the wall time of a single simulation attempt.
	// Zero means no per-point limit.
	PointTimeout time.Duration
	// Progress, when non-nil, receives one line per completed simulation.
	// The runner serializes all writes, so any writer is safe even under
	// concurrent Prefetch.
	Progress io.Writer
	// Logger, when non-nil, receives structured point-lifecycle records
	// (run/retry/failure) tagged with the request ID carried by the
	// caller's context (WithRequestID). Additive: the human-oriented
	// Progress lines are unchanged. Excluded from the checkpoint
	// fingerprint like Progress.
	Logger *slog.Logger
	// DisableFlight turns off the per-simulation flight recorder. The
	// recorder is on by default (its cost is a handful of counter reads
	// per 2^16 cycles) so every failure record carries the final epochs
	// of the run that produced it; benchmarks measuring the simulator
	// alone may switch it off.
	DisableFlight bool
}

// DefaultParams returns the scale used for the committed EXPERIMENTS.md
// numbers: 1/64 capacity scale, 1.5 M instructions per core.
func DefaultParams() Params {
	return Params{
		Scale:               64,
		InstructionsPerCore: 1_500_000,
		WarmupRefs:          50_000,
		Cores:               8,
		CacheMB:             256,
		GapScale:            2,
		Seed:                1,
	}
}

// QuickParams returns a reduced scale for smoke tests and benchmarks.
func QuickParams() Params {
	p := DefaultParams()
	p.InstructionsPerCore = 250_000
	p.WarmupRefs = 12_000
	return p
}

// Runner executes simulations with memoization, singleflight
// deduplication, bounded retry, and optional disk checkpointing. Run is
// safe for concurrent use; Prefetch exploits that to fill the memo in
// parallel. Concurrent Run calls that reach the same Point collapse onto
// one simulation: the first caller becomes the leader, later callers wait
// on its in-flight record and share its outcome, so the shared DesignNone
// baseline is never simulated twice however many Speedup calls race to it.
type Runner struct {
	p Params //alloyvet:owner NewRunner; immutable

	mu       sync.Mutex
	cache    map[Point]core.Result    //alloyvet:guard mu
	inflight map[Point]*inflightCall  //alloyvet:guard mu
	failures map[Point]*FailureRecord //alloyvet:guard mu
	m        Metrics                  //alloyvet:guard mu

	// ckpt is non-nil once EnableCheckpoint succeeds; it owns the file
	// path and serializes snapshot writes.
	//alloyvet:guard mu
	ckpt *checkpointWriter

	// pw serializes all operator-facing output: Prefetch completes points
	// on many goroutines, and io.Writer implementations (files, buffers)
	// are not safe for concurrent use. WriteSummary renders through the
	// same lock, so a summary line can never interleave with a progress
	// line even when they target the same stream.
	//alloyvet:owner NewRunner; the SyncWriter locks itself
	pw *obs.SyncWriter

	// simulate is the point-execution function; tests substitute it to
	// count or fail executions without paying for real simulations.
	//alloyvet:owner NewRunner; immutable outside tests
	simulate func(ctx context.Context, pt Point) (core.Result, error)

	// flights retains the flight-recorder dump of each point's most
	// recent execution (success or failure), bounded to flightCap
	// entries evicted oldest-first. Failure dumps also land in the
	// point's FailureRecord; success dumps serve the validate harness,
	// which attaches them to gate-trip reports after runs complete.
	flights []flightEntry //alloyvet:guard mu

	// lazy holds the state the runner creates on first use rather than
	// in NewRunner (see scratchLocked).
	lazy *runnerScratch //alloyvet:guard mu

	// recordWarm builds a warm tape; tests substitute it to stall or fail
	// builds.
	//alloyvet:owner NewRunner; immutable outside tests
	recordWarm func(ctx context.Context, cfg core.Config) (*core.WarmTape, error)
}

// runnerScratch is the runner state that only some runs need.
type runnerScratch struct {
	// warm holds a warm tape slot per warm key that a running Prefetch
	// still has pending points for (see warmTape). A slot is dropped,
	// tape and all, when its last pending point finishes.
	warm map[core.WarmKey]*warmSlot
	// flightBufs are idle buffers for rendering flight dumps
	// (renderFlight); there are at most as many as points ever rendered
	// at once.
	flightBufs [][]byte
}

// scratchLocked returns the runner's scratch state, creating it on first use.
// The caller holds mu.
func (r *Runner) scratchLocked() *runnerScratch {
	if r.lazy == nil {
		r.lazy = &runnerScratch{warm: make(map[core.WarmKey]*warmSlot)}
	}
	return r.lazy
}

// warmSlot is the shared warm-up of one warm key while a Prefetch needs
// it.
type warmSlot struct {
	pending int            // Prefetch points that may still ask for the tape
	tape    *core.WarmTape // nil until built
	// building is non-nil while a leader records the tape and is closed
	// when it stops, with or without a tape. A leader that fails leaves
	// tape nil, so a waiter takes over instead of inheriting an error
	// that may belong to the leader's context alone.
	building chan struct{}
}

// flightEntry pairs a point with its most recent flight dump.
type flightEntry struct {
	pt   Point
	dump []byte
}

// flightCap bounds how many per-point flight dumps the runner retains.
const flightCap = 16

// inflightCall is the singleflight record for one running Point.
type inflightCall struct {
	done chan struct{} // closed when res/err/abandoned are final
	res  core.Result
	err  error
	// abandoned marks a call whose leader was cancelled before producing
	// an outcome. The leader's ctx.Err() belongs to the leader alone:
	// broadcasting it would poison waiters whose own contexts are live and
	// leave the point unexecuted. Waiters that observe abandoned re-enter
	// the singleflight and one of them becomes the new leader.
	abandoned bool
}

// FailureRecord describes the final outcome of a point whose every
// attempt failed. Flight holds the flight-recorder dump (JSON) captured
// from the failing simulation's last attempt — the epochs leading up to
// the failure — when the recorder was enabled.
type FailureRecord struct {
	Point    Point
	Attempts int
	Err      string
	Flight   string
}

// Metrics summarizes runner activity. All durations are wall time spent
// inside simulations (summed across concurrent runs, so it can exceed
// elapsed time during Prefetch).
type Metrics struct {
	// PointsRun counts simulations actually executed (successful attempts).
	PointsRun uint64
	// MemoHits counts Run calls served from the in-memory memo.
	MemoHits uint64
	// CheckpointHits counts points restored from a checkpoint file.
	CheckpointHits uint64
	// FlightJoins counts Run calls that waited on a concurrent duplicate
	// instead of simulating.
	FlightJoins uint64
	// Retries counts re-attempts after a transient failure.
	Retries uint64
	// Failures counts points whose every attempt failed.
	Failures uint64
	// SimWall is cumulative wall time inside successful simulations.
	SimWall time.Duration
	// MaxPointWall is the slowest successful simulation.
	MaxPointWall time.Duration
	// WarmBuilds counts warm tapes recorded: one per warm key per
	// Prefetch that simulates at least minTapePoints of its points.
	WarmBuilds uint64
	// WarmRestores counts simulations that took their warm-up from a
	// tape instead of warming the L3 live.
	WarmRestores uint64
}

// NewRunner creates a runner.
func NewRunner(p Params) *Runner {
	r := &Runner{
		p:        p,
		cache:    make(map[Point]core.Result),
		inflight: make(map[Point]*inflightCall),
		failures: make(map[Point]*FailureRecord),
		pw:       obs.NewSyncWriter(p.Progress),
	}
	r.simulate = r.simulatePoint
	r.recordWarm = core.RecordWarm
	return r
}

// Point identifies one simulation in the memo space.
type Point struct {
	Workload  string             `json:"workload"`
	Design    core.Design        `json:"design"`
	Predictor core.PredictorKind `json:"predictor"`
	CacheMB   uint64             `json:"cache_mb"`
	// Variant is the config delta from the runner's defaults. It is in
	// neither String (alloysimd's content keys hash that 4-field form)
	// nor Point's JSON (daemon grids are zero-variant); checkpoint
	// entries carry it beside the point.
	Variant Variant `json:"-"`
}

// String renders the point in the stable "workload|design|pred|MB" form.
// It omits the variant; label includes it.
func (pt Point) String() string {
	return fmt.Sprintf("%s|%s|%s|%d", pt.Workload, pt.Design, pt.Predictor, pt.CacheMB)
}

// label is String plus the variant in brackets when there is one: the
// form of progress lines, errors and failure summaries, and a total
// order over points for sorted output.
func (pt Point) label() string {
	if v := pt.Variant.String(); v != "" {
		return pt.String() + " [" + v + "]"
	}
	return pt.String()
}

// Variant is a config delta from the runner's defaults: the knobs the
// ablation, seed and policy experiments turn. A zero field keeps the
// default. Variant is comparable, so a Point with a variant is a memo key
// like any other, and normalize collapses every field spelled at its
// default to zero so such a point shares the plain point's memo slot.
type Variant struct {
	// MLP is the core's memory-level parallelism window (default 2).
	MLP int `json:"mlp,omitempty"`
	// WriteBuffer is the write-buffer depth below the L3 (default 64).
	WriteBuffer int `json:"write_buffer,omitempty"`
	// StackedChannels is the stacked DRAM's channel count (default 4).
	StackedChannels int `json:"stacked_channels,omitempty"`
	// L3Policy is the shared L3's replacement policy (default "dip").
	L3Policy string `json:"l3_policy,omitempty"`
	// DCPolicy overrides the DRAM cache's replacement policy. It is never
	// collapsed: an explicit policy takes core's design x policy seeding
	// path, which differs from the design's built-in default.
	DCPolicy string `json:"dc_policy,omitempty"`
	// Seed replaces Params.Seed for the workload generators.
	Seed uint64 `json:"seed,omitempty"`
}

// String renders the non-zero fields as space-separated key=value pairs
// in field order; the zero Variant renders as "".
func (v Variant) String() string {
	var f []string
	if v.MLP != 0 {
		f = append(f, fmt.Sprintf("mlp=%d", v.MLP))
	}
	if v.WriteBuffer != 0 {
		f = append(f, fmt.Sprintf("wbuf=%d", v.WriteBuffer))
	}
	if v.StackedChannels != 0 {
		f = append(f, fmt.Sprintf("chan=%d", v.StackedChannels))
	}
	if v.L3Policy != "" {
		f = append(f, "l3pol="+v.L3Policy)
	}
	if v.DCPolicy != "" {
		f = append(f, "dcpol="+v.DCPolicy)
	}
	if v.Seed != 0 {
		f = append(f, fmt.Sprintf("seed=%d", v.Seed))
	}
	return strings.Join(f, " ")
}

// Normalize returns the canonical spelling of pt under this runner's
// defaults — the form under which distinct argument spellings of the
// same simulation share one memo slot (and, in the daemon, one content
// address).
func (r *Runner) Normalize(pt Point) Point { return r.normalize(pt) }

// normalize applies the runner defaults that make distinct argument
// spellings of the same simulation share one memo slot: a variant field
// spelled at its default is the default.
func (r *Runner) normalize(pt Point) Point {
	if pt.CacheMB == 0 {
		pt.CacheMB = r.p.CacheMB
	}
	if pt.Design == core.DesignNone {
		pt.CacheMB = 0 // baseline is independent of cache size
	}
	v := &pt.Variant
	if v.MLP == cpu.DefaultConfig().MLP {
		v.MLP = 0
	}
	if v.WriteBuffer == core.DefaultWriteBufferEntries {
		v.WriteBuffer = 0
	}
	if v.StackedChannels == dram.StackedConfig().Channels {
		v.StackedChannels = 0
	}
	if v.L3Policy == core.DefaultL3Policy {
		v.L3Policy = ""
	}
	if v.Seed == r.p.Seed {
		v.Seed = 0
	}
	return pt
}

// Prefetch runs the given points concurrently (bounded by Parallelism)
// so later sequential Run calls hit the memo. All points run to
// completion even when some fail; every failure is reported, joined in
// input order. Cancelling ctx stops launching new points and cancels the
// in-flight ones.
//
// The points of one workload share a warm-up: when at least
// minTapePoints of them are pending, the first to simulate records it as
// a warm tape and every one restores from it (warmTape). Points launch
// grouped by warm key, groups in order of first occurrence, so a tape is
// live only while its group runs and about Parallelism tapes exist at
// once.
func (r *Runner) Prefetch(ctx context.Context, points []Point) error {
	par := r.p.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	order, keys, held := r.holdWarm(points)
	sem := make(chan struct{}, par)
	errs := make([]error, len(points))
	var wg sync.WaitGroup
	for _, i := range order {
		i, pt := i, points[i]
		// Consult the context before the semaphore: a two-way select would
		// nondeterministically pick a free slot over an already-cancelled
		// context. Every point not launched gets its own recorded error, so
		// callers can tell exactly which simulations never ran.
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("prefetch %s: skipped: %w", pt.label(), err)
			r.releaseWarm(keys[i], held[i])
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			errs[i] = fmt.Errorf("prefetch %s: skipped: %w", pt.label(), ctx.Err())
			r.releaseWarm(keys[i], held[i])
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			defer r.releaseWarm(keys[i], held[i])
			if _, err := r.RunPoint(ctx, pt); err != nil {
				errs[i] = fmt.Errorf("prefetch %s: %w", pt.label(), err)
			}
		}()
	}
	// Every worker's Run honors ctx (cancellation fails its point fast),
	// so after a cancel this join is bounded by one engine quantum per
	// in-flight worker — the wait cannot outlive the workers.
	wg.Wait() //alloyvet:allow(ctxflow)
	return errors.Join(errs...)
}

// holdWarm registers a Prefetch's interest in warm tapes. It returns the
// launch order (points grouped by warm key, groups in first-occurrence
// order), each point's warm key, and whether the point holds a pending
// count on its key's slot: a keyed point not already in the memo does.
// Each held count is given back by releaseWarm.
func (r *Runner) holdWarm(points []Point) (order []int, keys []core.WarmKey, held []bool) {
	keys = make([]core.WarmKey, len(points))
	held = make([]bool, len(points))
	group := make(map[core.WarmKey]int) // warm key -> index into groups
	var groups [][]int
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, pt := range points {
		pt = r.normalize(pt)
		k, ok := r.pointConfig(pt).WarmKey()
		if !ok {
			groups = append(groups, []int{i})
			continue
		}
		g, seen := group[k]
		if !seen {
			g = len(groups)
			group[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
		keys[i] = k
		if _, done := r.cache[pt]; done {
			continue
		}
		warm := r.scratchLocked().warm
		slot := warm[k]
		if slot == nil {
			slot = &warmSlot{}
			warm[k] = slot
		}
		slot.pending++
		held[i] = true
	}
	order = make([]int, 0, len(points))
	for _, g := range groups {
		order = append(order, g...)
	}
	return order, keys, held
}

// releaseWarm gives back one pending count on k's slot, dropping the slot
// and its tape with the last one.
func (r *Runner) releaseWarm(k core.WarmKey, held bool) {
	if !held {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	warm := r.lazy.warm
	slot := warm[k]
	if slot.pending--; slot.pending == 0 {
		delete(warm, k)
	}
}

// minTapePoints is the fewest pending points a warm tape is recorded
// for. Recording costs one generator and L3 pass, and restoring still
// regenerates every reference, so a tape saves one L3 pass per point
// minus one generator pass; measured at DefaultParams, groups of two and
// four points ran slower with a tape than without.
const minTapePoints = 5

// warmTape returns the warm tape cfg's simulation should restore from, or
// nil to warm live: nil when no Prefetch holds cfg's warm key, or when
// fewer than minTapePoints pending points would use a tape not yet
// built. The first caller to need the tape records it; concurrent
// callers wait for that leader. A leader that fails, its own context
// cancelled included, leaves no tape behind, and a waiter whose context
// is live records it instead.
func (r *Runner) warmTape(ctx context.Context, cfg core.Config) (*core.WarmTape, error) {
	k, ok := cfg.WarmKey()
	if !ok {
		return nil, nil
	}
	for {
		r.mu.Lock()
		var slot *warmSlot
		if r.lazy != nil {
			slot = r.lazy.warm[k]
		}
		switch {
		case slot == nil:
			r.mu.Unlock()
			return nil, nil
		case slot.tape != nil:
			r.mu.Unlock()
			return slot.tape, nil
		case slot.building != nil:
			building := slot.building
			r.mu.Unlock()
			select {
			case <-building:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		case slot.pending < minTapePoints:
			r.mu.Unlock()
			return nil, nil
		}
		building := make(chan struct{})
		slot.building = building
		r.mu.Unlock()

		tape, err := r.recordWarm(ctx, cfg)

		r.mu.Lock()
		slot.building = nil
		if err == nil {
			slot.tape = tape
			r.m.WarmBuilds++
		}
		r.mu.Unlock()
		close(building)
		return tape, err
	}
}

// Params returns the runner's parameters.
func (r *Runner) Params() Params { return r.p }

// Run simulates one (workload, design, predictor, cacheMB) point at the
// runner's defaults: RunPoint with a zero Variant.
func (r *Runner) Run(ctx context.Context, workload string, d core.Design, pk core.PredictorKind, cacheMB uint64) (core.Result, error) {
	return r.RunPoint(ctx, Point{Workload: workload, Design: d, Predictor: pk, CacheMB: cacheMB})
}

// RunPoint simulates one point. CacheMB is paper-scale; zero uses the
// runner default. Results are memoized under the normalized point;
// concurrent calls for the same point share a single execution, and
// waiters share the leader's outcome, errors included — with one
// exception: a leader whose own context is cancelled abandons the call
// rather than broadcasting its ctx.Err(), and a live-context waiter takes
// over as the new leader. A cancellation therefore only ever surfaces to
// the caller whose context it belongs to, and the point still completes
// as long as any interested caller survives.
func (r *Runner) RunPoint(ctx context.Context, pt Point) (core.Result, error) {
	key := r.normalize(pt)

	for {
		r.mu.Lock()
		if res, ok := r.cache[key]; ok {
			r.m.MemoHits++
			r.mu.Unlock()
			return res, nil
		}
		if c, ok := r.inflight[key]; ok {
			r.m.FlightJoins++
			r.mu.Unlock()
			// The joiner's request ID is logged here; the leader's was (or
			// will be) logged by its own "point complete" record. Together
			// they make singleflight coalescing reconstructable per request.
			r.logw(ctx, slog.LevelDebug, "point joined inflight leader", key.logAttrs()...)
			select {
			case <-c.done:
				if c.abandoned {
					// The leader was cancelled, not the point. If this
					// waiter's own context is still live it loops around
					// and competes to become the new leader; the inflight
					// entry is already gone.
					if err := ctx.Err(); err != nil {
						return core.Result{}, err
					}
					continue
				}
				return c.res, c.err
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			}
		}
		c := &inflightCall{done: make(chan struct{})}
		r.inflight[key] = c
		r.mu.Unlock()

		res, err := r.runPoint(ctx, key)

		// A failure caused by this leader's own cancellation is not an
		// outcome of the point: mark the call abandoned so waiters retry
		// instead of inheriting a context error that was never theirs.
		abandoned := err != nil && ctx.Err() != nil

		r.mu.Lock()
		delete(r.inflight, key)
		if err == nil {
			r.cache[key] = res
		}
		r.mu.Unlock()
		c.res, c.err, c.abandoned = res, err, abandoned
		close(c.done)

		if err == nil {
			// saveCheckpoint re-reads r.ckpt under the lock and is a
			// no-op when checkpointing is disabled.
			if cerr := r.saveCheckpoint(); cerr != nil {
				r.progressf("  checkpoint write failed: %v\n", cerr)
			}
		}
		return res, err
	}
}

// runPoint executes one point with the configured retry budget. Only the
// singleflight leader reaches here.
func (r *Runner) runPoint(ctx context.Context, key Point) (core.Result, error) {
	attempts := 1 + r.p.Retries
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			lastErr = err
			r.recordFailure(key, attempt, err)
			return core.Result{}, err
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if r.p.PointTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, r.p.PointTimeout)
		}
		// Wall-clock timing of the host process, not simulated time: it
		// feeds the operator-facing Metrics (SimWall, MaxPointWall) and
		// never influences a simulation result.
		start := time.Now() //alloyvet:allow(determinism)
		res, err := r.simulate(actx, key)
		elapsed := time.Since(start) //alloyvet:allow(determinism)
		cancel()
		if err == nil {
			r.mu.Lock()
			r.m.PointsRun++
			r.m.SimWall += elapsed
			if elapsed > r.m.MaxPointWall {
				r.m.MaxPointWall = elapsed
			}
			delete(r.failures, key)
			r.mu.Unlock()
			r.progressf("  ran %s in %.2fs (attempt %d)\n", key.label(), elapsed.Seconds(), attempt)
			r.logw(ctx, slog.LevelInfo, "point complete", append(key.logAttrs(),
				slog.Int("attempt", attempt), slog.Float64("wall_s", elapsed.Seconds()))...)
			return res, nil
		}
		lastErr = err
		r.recordFailure(key, attempt, err)
		var perm permanentError
		if errors.As(err, &perm) || ctx.Err() != nil {
			break // configuration errors and parent cancellation never heal
		}
		if attempt < attempts {
			r.mu.Lock()
			r.m.Retries++
			r.mu.Unlock()
			r.progressf("  retrying %s after attempt %d: %v\n", key.label(), attempt, err)
			r.logw(ctx, slog.LevelWarn, "point retrying", append(key.logAttrs(),
				slog.Int("attempt", attempt), slog.String("error", err.Error()))...)
		}
	}
	// A leader abandoned by its own context is not a point failure: the
	// call is handed to a surviving waiter (or retried by the next caller),
	// so only genuine exhaustion and permanent errors count.
	if ctx.Err() == nil {
		r.mu.Lock()
		r.m.Failures++
		r.mu.Unlock()
		r.logw(ctx, slog.LevelError, "point failed", append(key.logAttrs(),
			slog.Int("attempts", attempts), slog.String("error", lastErr.Error()))...)
	}
	return core.Result{}, lastErr
}

// logAttrs returns the slog attributes identifying a point: "point" in
// the 4-field String form (log consumers parse it), plus "variant" when
// the point has one.
func (pt Point) logAttrs() []any {
	if v := pt.Variant.String(); v != "" {
		return []any{slog.String("point", pt.String()), slog.String("variant", v)}
	}
	return []any{slog.String("point", pt.String())}
}

// permanentError wraps failures that no retry can fix (configuration
// errors detected before the simulation starts).
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// simulatePoint is the real point execution: build a system from the
// runner params, restore its warm-up from the workload's warm tape when
// a Prefetch shares one, and run it under ctx, with the always-on flight
// recorder attached so a failing run leaves its final epochs behind.
func (r *Runner) simulatePoint(ctx context.Context, key Point) (core.Result, error) {
	cfg := r.pointConfig(key)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, permanentError{err}
	}
	tape, err := r.warmTape(ctx, cfg)
	if err != nil {
		return core.Result{}, fmt.Errorf("recording warm tape: %w", err)
	}
	if tape != nil {
		if err := sys.RestoreWarm(tape); err != nil {
			return core.Result{}, permanentError{err}
		}
		r.mu.Lock()
		r.m.WarmRestores++
		r.mu.Unlock()
	}
	var fr *obs.FlightRecorder
	if !r.p.DisableFlight {
		fr = obs.NewFlightRecorder(64, 4096, 256)
		sys.EnableFlightRecorder(fr)
	}
	res, err := sys.RunContext(ctx)
	if fr != nil {
		r.noteFlight(key, r.renderFlight(fr))
	}
	return res, err
}

// renderFlight returns fr's JSON dump in a slice of exactly its length.
// It renders into one of the runner's scratch buffers and copies out:
// appending into a fresh slice would allocate four to five times the
// dump as the slice grows.
func (r *Runner) renderFlight(fr *obs.FlightRecorder) []byte {
	var buf []byte
	r.mu.Lock()
	sc := r.scratchLocked()
	if n := len(sc.flightBufs); n > 0 {
		buf, sc.flightBufs = sc.flightBufs[n-1], sc.flightBufs[:n-1]
	}
	r.mu.Unlock()
	buf = fr.AppendJSON(buf[:0])
	dump := make([]byte, len(buf))
	copy(dump, buf)
	r.mu.Lock()
	sc.flightBufs = append(sc.flightBufs, buf)
	r.mu.Unlock()
	return dump
}

// pointConfig derives the core.Config one point simulates under the
// runner's params and the point's variant — the single source of truth
// shared by the memoized sweep and the phase experiment's instrumented
// direct runs.
func (r *Runner) pointConfig(key Point) core.Config {
	cfg := core.DefaultConfig(key.Workload)
	cfg.Design = key.Design
	cfg.Predictor = key.Predictor
	cfg.Scale = r.p.Scale
	cfg.InstructionsPerCore = r.p.InstructionsPerCore
	cfg.WarmupRefs = r.p.WarmupRefs
	cfg.Cores = r.p.Cores
	cfg.GapScale = r.p.GapScale
	cfg.Seed = r.p.Seed
	if key.CacheMB > 0 {
		cfg.DRAMCacheBytes = key.CacheMB << 20
	}
	v := key.Variant
	if v.MLP != 0 {
		cfg.CPU.MLP = v.MLP
	}
	if v.WriteBuffer != 0 {
		cfg.WriteBufferEntries = v.WriteBuffer
	}
	if v.StackedChannels != 0 {
		cfg.Stacked.Channels = v.StackedChannels
	}
	if v.L3Policy != "" {
		cfg.L3Policy = v.L3Policy
	}
	cfg.DCPolicy = v.DCPolicy
	if v.Seed != 0 {
		cfg.Seed = v.Seed
	}
	return cfg
}

// noteFlight records a point's most recent flight dump, evicting the
// oldest entry past flightCap.
func (r *Runner) noteFlight(key Point, dump []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.flights {
		if r.flights[i].pt == key {
			r.flights[i].dump = dump
			return
		}
	}
	r.flights = append(r.flights, flightEntry{pt: key, dump: dump})
	if len(r.flights) > flightCap {
		r.flights = r.flights[1:]
	}
}

// FlightDump returns the flight-recorder dump of the point's most recent
// execution, if still retained.
func (r *Runner) FlightDump(pt Point) (string, bool) {
	key := r.normalize(pt)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.flights {
		if r.flights[i].pt == key {
			return string(r.flights[i].dump), true
		}
	}
	return "", false
}

// LastFlightDump returns the most recently recorded flight dump and its
// point; the daemon's SIGQUIT handler dumps it as the best available
// "what was the simulator just doing" record.
func (r *Runner) LastFlightDump() (Point, string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.flights) == 0 {
		return Point{}, "", false
	}
	e := r.flights[len(r.flights)-1]
	return e.pt, string(e.dump), true
}

// recordFailure updates the per-point failure record, attaching the
// flight dump the failing attempt left behind (noteFlight runs inside
// simulatePoint, so by the time the error propagates here the dump for
// this point is already retained).
func (r *Runner) recordFailure(key Point, attempt int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.failures[key]
	if f == nil {
		f = &FailureRecord{Point: key}
		r.failures[key] = f
	}
	f.Attempts = attempt
	f.Err = err.Error()
	for i := range r.flights {
		if r.flights[i].pt == key {
			f.Flight = string(r.flights[i].dump)
			break
		}
	}
}

// FailureRecords returns the final failure record of every point whose
// attempts were exhausted, sorted by point key.
func (r *Runner) FailureRecords() []FailureRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FailureRecord, 0, len(r.failures))
	//alloyvet:allow(determinism) collection order is irrelevant: sorted by point key below
	for _, f := range r.failures {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point.label() < out[j].Point.label() })
	return out
}

// Metrics returns a snapshot of the runner's counters.
func (r *Runner) Metrics() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m
}

// WriteSummary renders the structured run summary: how much work the
// sweep did, how much the memo and checkpoint absorbed, and where the
// wall time went — as one key=value line, stable for scripts to grep and
// parse. The write goes through the runner's serialized writer, so it can
// never interleave with a concurrent progress line, even when w and the
// Progress writer share a stream.
func (r *Runner) WriteSummary(w io.Writer) {
	m := r.Metrics()
	var mean time.Duration
	if m.PointsRun > 0 {
		mean = m.SimWall / time.Duration(m.PointsRun)
	}
	r.pw.Fprintf(w, "sweep summary: simulations_run=%d memo_hits=%d checkpoint_hits=%d inflight_joins=%d retries=%d failures=%d sim_wall_s=%.1f point_mean_s=%.2f point_max_s=%.2f warm_builds=%d warm_restores=%d\n",
		m.PointsRun, m.MemoHits, m.CheckpointHits, m.FlightJoins, m.Retries, m.Failures,
		m.SimWall.Seconds(), mean.Seconds(), m.MaxPointWall.Seconds(), m.WarmBuilds, m.WarmRestores)
	for _, f := range r.FailureRecords() {
		note := ""
		if f.Flight != "" {
			note = " [flight recording attached]"
		}
		r.pw.Fprintf(w, "  failed: %s after %d attempt(s): %s%s\n", f.Point.label(), f.Attempts, f.Err, note)
	}
}

// RegisterMetrics exposes the runner's sweep counters in reg under the
// given prefix (e.g. "runner"). Reads snapshot under the runner lock at
// dump time.
func (r *Runner) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.RegisterCounterFunc(prefix+"_points_run_total", "simulations actually executed", func() uint64 { return r.Metrics().PointsRun })
	reg.RegisterCounterFunc(prefix+"_memo_hits_total", "Run calls served from the in-memory memo", func() uint64 { return r.Metrics().MemoHits })
	reg.RegisterCounterFunc(prefix+"_checkpoint_hits_total", "points restored from a checkpoint file", func() uint64 { return r.Metrics().CheckpointHits })
	reg.RegisterCounterFunc(prefix+"_inflight_joins_total", "Run calls that joined a concurrent duplicate", func() uint64 { return r.Metrics().FlightJoins })
	reg.RegisterCounterFunc(prefix+"_retries_total", "re-attempts after transient failures", func() uint64 { return r.Metrics().Retries })
	reg.RegisterCounterFunc(prefix+"_failures_total", "points whose every attempt failed", func() uint64 { return r.Metrics().Failures })
	reg.RegisterCounterFunc(prefix+"_warm_builds_total", "warm tapes recorded", func() uint64 { return r.Metrics().WarmBuilds })
	reg.RegisterCounterFunc(prefix+"_warm_restores_total", "simulations whose warm-up was restored from a tape", func() uint64 { return r.Metrics().WarmRestores })
	reg.RegisterGaugeFunc(prefix+"_sim_wall_seconds", "cumulative wall time inside successful simulations", func() float64 { return r.Metrics().SimWall.Seconds() })
}

// progressf writes one progress line, serialized across goroutines.
func (r *Runner) progressf(format string, args ...interface{}) {
	r.pw.Printf(format, args...)
}

// Speedup returns the speedup of a design run over the workload baseline.
func (r *Runner) Speedup(ctx context.Context, workload string, d core.Design, pk core.PredictorKind, cacheMB uint64) (float64, error) {
	return r.speedup(ctx, Point{Workload: workload, Design: d, Predictor: pk, CacheMB: cacheMB})
}

// speedup returns pt's speedup over its workload's baseline simulated
// under the same variant.
func (r *Runner) speedup(ctx context.Context, pt Point) (float64, error) {
	base, err := r.RunPoint(ctx, Point{Workload: pt.Workload, Design: core.DesignNone, Variant: pt.Variant})
	if err != nil {
		return 0, err
	}
	res, err := r.RunPoint(ctx, pt)
	if err != nil {
		return 0, err
	}
	return res.SpeedupOver(base), nil
}

// DetailedWorkloads returns the ten memory-intensive workload names in
// Table 3 order.
func DetailedWorkloads() []string {
	var names []string
	for _, p := range trace.MemoryIntensive() {
		names = append(names, p.Name)
	}
	return names
}

// OtherWorkloads returns the fourteen Figure 11 workload names.
func OtherWorkloads() []string {
	var names []string
	for _, p := range trace.Others() {
		names = append(names, p.Name)
	}
	return names
}

// GeoMeanSpeedup runs a design over all workloads and returns per-workload
// speedups plus their geometric mean.
func (r *Runner) GeoMeanSpeedup(ctx context.Context, workloads []string, d core.Design, pk core.PredictorKind, cacheMB uint64) (map[string]float64, float64, error) {
	return r.geoMeanSpeedup(ctx, workloads, Point{Design: d, Predictor: pk, CacheMB: cacheMB})
}

// geoMeanSpeedup is GeoMeanSpeedup for the design, predictor, size and
// variant of pt, whose Workload it ignores.
func (r *Runner) geoMeanSpeedup(ctx context.Context, workloads []string, pt Point) (map[string]float64, float64, error) {
	per := make(map[string]float64, len(workloads))
	var vals []float64
	for _, w := range workloads {
		pt.Workload = w
		s, err := r.speedup(ctx, pt)
		if err != nil {
			return nil, 0, err
		}
		per[w] = s
		vals = append(vals, s)
	}
	return per, stats.GeoMean(vals), nil
}

// Experiment is one registered table or figure reproduction.
type Experiment struct {
	// ID matches the DESIGN.md per-experiment index, e.g. "fig4".
	ID string
	// Title is the paper artifact being reproduced.
	Title string
	// Run executes the experiment and renders its table to w. It must
	// honor ctx: cancellation aborts the underlying simulations between
	// engine quanta.
	Run func(ctx context.Context, r *Runner, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
