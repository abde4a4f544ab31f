// Command paperfigs regenerates the tables and figures of the paper's
// evaluation. Run with no flags to regenerate everything, or select one
// experiment with -exp.
//
//	paperfigs -exp fig4          # one experiment
//	paperfigs -list              # list experiment IDs
//	paperfigs -quick             # smaller traces, faster, noisier
//	paperfigs -scale 32 -instr 3000000
//	paperfigs -checkpoint sweep.ckpt   # resume an interrupted sweep
//
// Ctrl-C (or SIGTERM) cancels the sweep between simulation quanta; with
// -checkpoint the completed points are already on disk, so re-running
// with the same flags resumes instead of restarting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"alloysim/internal/experiments"
	"alloysim/internal/obs"
)

// startProfiles begins CPU profiling and arranges a heap snapshot, as
// selected by the -cpuprofile/-memprofile flags. The returned stop function
// must run before exit (it finalizes both files).
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}

func main() {
	var (
		exp        = flag.String("exp", "", "experiment ID to run (default: all)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		quick      = flag.Bool("quick", false, "use reduced trace lengths")
		scale      = flag.Uint64("scale", 0, "capacity scale divisor (default 64)")
		instr      = flag.Uint64("instr", 0, "instructions per core (default 1.5M)")
		seed       = flag.Uint64("seed", 0, "workload seed (default 1)")
		progress   = flag.Bool("v", false, "print each completed simulation")
		outDir     = flag.String("o", "", "also write each experiment's output to <dir>/<id>.txt")
		checkpoint = flag.String("checkpoint", "", "memo checkpoint file: completed points are saved here and restored on the next run")
		timeout    = flag.Duration("timeout", 0, "per-simulation timeout (0 = none), e.g. 90s")
		retries    = flag.Int("retries", 1, "retry attempts for a failed simulation point")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
		metricsOut = flag.String("metrics", "", `write a sweep-metrics dump at exit ("-" = stdout, Prometheus text)`)
		debugAddr  = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address during the sweep")
	)
	flag.Parse()

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	params := experiments.DefaultParams()
	if *quick {
		params = experiments.QuickParams()
	}
	if *scale > 0 {
		params.Scale = *scale
	}
	if *instr > 0 {
		params.InstructionsPerCore = *instr
	}
	if *seed > 0 {
		params.Seed = *seed
	}
	if *progress {
		params.Progress = os.Stderr
	}
	params.PointTimeout = *timeout
	params.Retries = *retries
	runner := experiments.NewRunner(params)

	var reg *obs.Registry
	if *metricsOut != "" || *debugAddr != "" {
		reg = obs.NewRegistry()
		runner.RegisterMetrics(reg, "runner")
	}
	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: debug server: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			// Graceful drain with a bound: an exiting CLI should not hang
			// on a stuck scrape, but lets a quick one finish.
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			if err := srv.Close(sctx); err != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: debug server shutdown: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "paperfigs: debug server listening on %s\n", *debugAddr)
	}

	if *checkpoint != "" {
		restored, err := runner.EnableCheckpoint(*checkpoint)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
			fmt.Fprintf(os.Stderr, "paperfigs: delete %s or rerun with the parameters it was written under\n", *checkpoint)
			os.Exit(1)
		}
		if restored > 0 {
			fmt.Printf("restored %d completed point(s) from %s\n", restored, *checkpoint)
		}
	}

	// Ctrl-C / SIGTERM cancel the sweep cooperatively: in-flight
	// simulations stop at the next engine quantum, and every point that
	// already completed is in the checkpoint.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
			os.Exit(1)
		}
	}

	// fail finishes the process after an error: the run summary and the
	// resume hint still print, so an interrupted sweep tells the user how
	// to pick it back up.
	fail := func(code int) {
		runner.WriteSummary(os.Stdout)
		if *checkpoint != "" && ctx.Err() != nil {
			fmt.Printf("interrupted: completed points are in %s; re-run with the same flags to resume\n", *checkpoint)
		}
		stopProf()
		os.Exit(code)
	}

	run := func(e experiments.Experiment) {
		start := time.Now()
		// The sidecar manifest is started per experiment so its wall time
		// covers exactly the simulations behind this results file.
		man := obs.NewManifest("paperfigs", os.Args[1:])
		man.ParamsFingerprint = params.Fingerprint()
		man.Seed = int64(params.Seed)
		man.Extra["experiment"] = e.ID
		man.Extra["title"] = e.Title
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		var out io.Writer = os.Stdout
		var f *os.File
		if *outDir != "" {
			var err error
			f, err = os.Create(filepath.Join(*outDir, e.ID+".txt"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
				fail(1)
			}
			fmt.Fprintf(f, "%s: %s\n\n", e.ID, e.Title)
			out = io.MultiWriter(os.Stdout, f)
		}
		if err := e.Run(ctx, runner, out); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %s failed: %v\n", e.ID, err)
			fail(1)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
				fail(1)
			}
			man.Finish()
			if err := man.WriteFile(filepath.Join(*outDir, e.ID+".manifest.json")); err != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: manifest: %v\n", err)
				fail(1)
			}
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}

	if *exp != "" {
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "paperfigs: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		run(e)
	} else {
		for _, e := range experiments.All() {
			run(e)
		}
	}
	runner.WriteSummary(os.Stdout)
	if *metricsOut != "" {
		if err := dumpMetrics(*metricsOut, reg); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: metrics: %v\n", err)
			os.Exit(1)
		}
	}
}

// dumpMetrics writes the registry in Prometheus text exposition format to
// the given path ("-" = stdout).
func dumpMetrics(dest string, reg *obs.Registry) error {
	if dest == "-" {
		return reg.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
