// Command perfbench is the repository's benchmark. It runs one named
// workload in this process, checks the simulator's outputs, and prints
// one JSON result line whose metrics are exactly those BENCHMARK.json
// declares: the end-to-end metrics for an untraced run, the per-layer
// metrics for a traced one (-trace 1).
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	fig-sweep  experiments fig8 and fig9 on one experiments.Runner
//	ablations  experiments abl-mlp and abl-wbuf, which bypass the Runner
//	point      two long single simulations, mcf_r then lbm_r
//
// It drives the simulator through public APIs only and measures each
// layer from outside, by timing calls into that layer's functions.
// perfbench/run.py builds and runs it; from the repository root:
//
//	python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: fig-sweep, ablations or point")
		seed     = flag.Uint64("seed", 1, "workload seed; 1 is the seed results/ was generated with")
		seconds  = flag.Int("seconds", 20, "measurement budget: repetitions stop once the next would overrun it (at least one runs)")
		traced   = flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
		root     = flag.String("root", ".", "repository root")
		spanOut  = flag.String("spans", "", "traced runs: write the recorded spans here as Chrome trace-event JSON")
		golden   = flag.Bool("write-golden", false, "record the point workload's seed-1 results as its golden file and exit")
	)
	flag.Parse()

	b := &bench{
		ctx:     context.Background(),
		root:    *root,
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		metrics: newMetricSet(),
	}
	if *golden {
		if err := b.writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	spec, err := loadSpec(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || !spec.hasWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seed == 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seed >= 1, -seconds >= 1 and -trace 0 or 1")
		return 2
	}

	want := spec.EndToEnd
	if *traced == 1 {
		b.spans = newSpanLog()
		err = b.traced(w)
		want = spec.PerLayer
	} else {
		err = b.untraced(w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := b.spans.writeChrome(*spanOut); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return 1
	}
	metrics, err := b.metrics.render(want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, n := range b.metrics.names {
		fmt.Fprintf(os.Stderr, "%-44s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	line, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if b.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", b.failed, b.attempted)
		return 3
	}
	return 0
}

// bench is one benchmark invocation.
type bench struct {
	ctx     context.Context
	root    string
	seed    uint64
	budget  time.Duration
	spans   *spanLog // nil unless traced
	metrics *metricSet

	attempted, failed int
}

// op counts one operation, failed if it has any problem.
func (b *bench) op(name string, problems []string) {
	b.attempted++
	if len(problems) == 0 {
		return
	}
	b.failed++
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", name, p)
	}
}

// workloadRunner runs one workload in the two modes.
type workloadRunner interface {
	// rep runs the workload once untraced and returns its host time
	// excluding set-up and the bytes it allocated.
	rep(b *bench) (wall time.Duration, alloc uint64, err error)
	// setup times set-up alone, without running the workload.
	setup(b *bench) (time.Duration, error)
	// traced measures the per-layer metrics.
	traced(b *bench) error
}

var workloads = map[string]workloadRunner{
	"fig-sweep": &sweepWorkload{ids: []string{"fig8", "fig9"}},
	"ablations": &sweepWorkload{ids: []string{"abl-mlp", "abl-wbuf"}},
	"point":     &pointWorkload{},
}

const (
	// setupSamples is how many set-up samples an untraced run takes
	// before it measures; setup_s is their median.
	setupSamples = 41
	// setupSampleTime is the least host time one sample covers: a sample
	// repeats the set-up until this much time has passed and reports the
	// mean, so a set-up of microseconds is not lost in timer noise.
	setupSampleTime = 2 * time.Millisecond
)

// untraced measures the end-to-end metrics: repetitions of the workload
// until the budget is spent, reported as medians.
func (b *bench) untraced(w workloadRunner) error {
	var setups, walls, allocs []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		var total time.Duration
		n := 0
		for total < setupSampleTime {
			d, err := w.setup(b)
			if err != nil {
				return err
			}
			total += d
			n++
		}
		setups = append(setups, total.Seconds()/float64(n))
	}
	start := time.Now()
	for {
		runtime.GC()
		wall, alloc, err := w.rep(b)
		if err != nil {
			return err
		}
		walls = append(walls, wall.Seconds())
		allocs = append(allocs, float64(alloc))
		// Start another repetition only if it should end within budget.
		if time.Since(start)+time.Duration(median(walls)*float64(time.Second)) > b.budget {
			break
		}
	}
	b.metrics.set("wall_s", median(walls))
	b.metrics.set("setup_s", median(setups))
	b.metrics.set("peak_rss_mb", peakRSSMB())
	b.metrics.set("alloc_mb", median(allocs)/1e6)
	fmt.Fprintf(os.Stderr, "perfbench: set-up samples %.3g s\nperfbench: repetition walls %.3f s\n", setups, walls)
	return nil
}

// traced measures the per-layer metrics of one workload.
func (b *bench) traced(w workloadRunner) error {
	root := b.spans.begin("perfbench", -1)
	defer b.spans.finish(root)
	return w.traced(b)
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set. Each workload runs
// in its own process, so one workload's peak cannot hide another's.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
