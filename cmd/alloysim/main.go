// Command alloysim runs a single DRAM-cache simulation and prints its
// results: the workload, design, predictor, cache size, and scale are all
// selectable. It is the low-level counterpart to cmd/paperfigs.
//
//	alloysim -workload mcf_r -design alloy -pred map-i
//	alloysim -workload libquantum_r -design lh-29 -cache 512
//	alloysim -list
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
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"alloysim/internal/core"
	"alloysim/internal/obs"
	"alloysim/internal/trace"
)

// buildConfigFromFlags assembles a configuration from the CLI flags.
func buildConfigFromFlags(workload, design, pred, dcPolicy string, cacheMB, scale, instr, warmup uint64, cores int, gap uint32, seed uint64, footprint bool) core.Config {
	cfg := core.DefaultConfig(workload)
	cfg.Design = core.Design(design)
	cfg.Predictor = core.PredictorKind(pred)
	cfg.DCPolicy = dcPolicy
	cfg.DRAMCacheBytes = cacheMB << 20
	cfg.Scale = scale
	cfg.InstructionsPerCore = instr
	cfg.WarmupRefs = warmup
	cfg.Cores = cores
	cfg.GapScale = gap
	cfg.Seed = seed
	cfg.TrackFootprint = footprint
	return cfg
}

// loadTraces builds one Replay generator per core from dir/core%d.trace.
func loadTraces(dir string, cores int) ([]trace.Generator, error) {
	gens := make([]trace.Generator, 0, cores)
	for i := 0; i < cores; i++ {
		path := filepath.Join(dir, fmt.Sprintf("core%d.trace", i))
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		refs, err := trace.ReadFile(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		r, err := trace.NewReplay(refs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		gens = append(gens, r)
	}
	return gens, nil
}

func main() {
	var (
		workload  = flag.String("workload", "mcf_r", "workload profile name (-list to enumerate)")
		design    = flag.String("design", "alloy", "DRAM cache design: none, sram-32, sram-1, lh-29, lh-29-rand, lh-1, alloy, alloy-2, alloy-b8, ideal-lo, ideal-lo-notag, banshee, gemini, tdram")
		pred      = flag.String("pred", "", "predictor: sam, pam, map-g, map-i, perfect, missmap (default: paper pairing)")
		dcPolicy  = flag.String("dcpolicy", "", "DRAM-cache replacement policy override for the set-associative designs (lh-29, gemini): lru, random, bip, dip, nru, srrip, brrip, ship")
		cacheMB   = flag.Uint64("cache", 256, "DRAM cache size in MB (paper scale)")
		scale     = flag.Uint64("scale", 64, "capacity/footprint scale divisor")
		instr     = flag.Uint64("instr", 1_500_000, "instructions per core")
		warmup    = flag.Uint64("warmup", 50_000, "warmup references per core")
		cores     = flag.Int("cores", 8, "number of rate-mode cores")
		gap       = flag.Uint("gapscale", 2, "instruction-gap multiplier")
		seed      = flag.Uint64("seed", 1, "workload seed")
		baseline  = flag.Bool("baseline", false, "also run the no-cache baseline and report speedup")
		footprint = flag.Bool("footprint", false, "track unique lines touched")
		traceDir  = flag.String("tracedir", "", "replay core%d.trace files from this directory instead of synthetic generators")
		timeout   = flag.Duration("timeout", 0, "abort the simulation after this wall time (0 = none)")
		confIn    = flag.String("config", "", "load the full configuration from a JSON file (other flags are ignored)")
		confOut   = flag.String("saveconfig", "", "write the effective configuration to a JSON file and exit")
		list      = flag.Bool("list", false, "list workloads and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")

		metricsOut  = flag.String("metrics", "", `write a metrics dump at exit ("-" = stdout; a .json path selects JSON instead of Prometheus text)`)
		traceOut    = flag.String("trace", "", "write a Chrome trace_event JSON of sampled requests (load in Perfetto / chrome://tracing)")
		traceCSV    = flag.String("trace-csv", "", "write the per-request latency-breakdown CSV to this file")
		traceSample = flag.Uint64("trace-sample", 64, "trace 1 in N reads below the L3 (0 disables tracing)")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address during the run")
		manifestOut = flag.String("manifest", "", "write a run-provenance manifest (JSON) to this file")
		tsOut       = flag.String("timeseries", "", "write the epoch-resolved phase time series to this file (a .json path selects JSON instead of CSV)")
		flightOut   = flag.String("flight", "", "attach the flight recorder and write its dump (recent epochs + sampled spans) to this file; SIGQUIT prints the latest snapshot mid-run")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alloysim: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "alloysim: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "alloysim: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "alloysim: memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "WORKLOAD\tPAPER MPKI\tPAPER FOOTPRINT\tPERFECT-L3")
		for _, p := range trace.All() {
			fmt.Fprintf(w, "%s\t%.1f\t%.0f MB\t%.1fx\n", p.Name, p.PaperMPKI, p.PaperFootprintMB, p.PaperPerfL3)
		}
		w.Flush()
		return
	}

	var cfg core.Config
	if *confIn != "" {
		var err error
		cfg, err = core.LoadConfigFile(*confIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alloysim: %v\n", err)
			os.Exit(1)
		}
	} else {
		cfg = buildConfigFromFlags(*workload, *design, *pred, *dcPolicy, *cacheMB, *scale, *instr, *warmup, *cores, uint32(*gap), *seed, *footprint)
	}
	if *confOut != "" {
		if err := core.SaveConfigFile(*confOut, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "alloysim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *confOut)
		return
	}
	if *traceDir != "" {
		gens, err := loadTraces(*traceDir, cfg.Cores)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alloysim: %v\n", err)
			os.Exit(1)
		}
		cfg.Generators = gens
	}

	// Ctrl-C / SIGTERM and -timeout cancel the simulation between engine
	// quanta instead of killing the process mid-write.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Observability: metrics and tracing attach to the primary run only —
	// the baseline comparison run stays uninstrumented so its counters do
	// not pollute the dump.
	man := obs.NewManifest("alloysim", os.Args[1:])
	man.ParamsFingerprint = cfg.Fingerprint()
	man.Seed = int64(cfg.Seed)
	man.Extra["workload"] = cfg.Workload
	man.Extra["design"] = string(cfg.Design)

	// The run ID is deterministic — derived from the configuration
	// fingerprint, not a clock — so identical runs correlate identically:
	// the same ID names the run in both the manifest and the trace-export
	// metadata, and reruns of one configuration share it by construction.
	runID := "r-" + strings.TrimPrefix(cfg.Fingerprint(), "cfg-")[:12]
	man.Extra["run_id"] = runID

	var reg *obs.Registry
	if *metricsOut != "" || *debugAddr != "" {
		reg = obs.NewRegistry()
	}
	var trc *obs.Tracer
	if *traceOut != "" || *traceCSV != "" {
		trc = obs.NewTracer(*traceSample, 0)
		trc.SetRunID(runID)
	}
	var ts *obs.TimeSeries
	if *tsOut != "" {
		ts = obs.NewTimeSeries(0)
	}
	var fr *obs.FlightRecorder
	if *flightOut != "" {
		fr = obs.NewFlightRecorder(0, 4096, 256)
		// SIGQUIT prints the most recently published snapshot without
		// stopping the run (snapshots refresh between engine quanta when a
		// registry is attached).
		quitCh := make(chan os.Signal, 1)
		signal.Notify(quitCh, syscall.SIGQUIT)
		defer signal.Stop(quitCh)
		//alloyvet:detached signal listener for the process lifetime; exits with the process
		go func() {
			for range quitCh {
				if snap, ok := fr.Snapshot(); ok {
					fmt.Fprintf(os.Stderr, "alloysim: flight snapshot:\n%s\n", snap)
				} else {
					fmt.Fprintln(os.Stderr, "alloysim: no flight snapshot published yet")
				}
			}
		}()
	}
	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alloysim: debug server: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			// Graceful drain with a bound: an exiting CLI should not hang
			// on a stuck scrape, but lets a quick one finish.
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			if err := srv.Close(sctx); err != nil {
				fmt.Fprintf(os.Stderr, "alloysim: debug server shutdown: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "alloysim: debug server listening on %s\n", *debugAddr)
	}

	res, err := run(ctx, cfg, reg, trc, ts, fr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alloysim: %v\n", err)
		os.Exit(1)
	}
	report(res)

	if *tsOut != "" {
		write := ts.WriteCSV
		if strings.HasSuffix(*tsOut, ".json") {
			write = ts.WriteJSON
		}
		if err := writeExport(*tsOut, write); err != nil {
			fmt.Fprintf(os.Stderr, "alloysim: timeseries: %v\n", err)
			os.Exit(1)
		}
		if d := ts.Drops(); d > 0 {
			fmt.Fprintf(os.Stderr, "alloysim: timeseries kept the first %d epochs (%d dropped)\n", ts.Len(), d)
		}
	}
	if *flightOut != "" {
		if err := writeExport(*flightOut, fr.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "alloysim: flight: %v\n", err)
			os.Exit(1)
		}
	}

	if *traceOut != "" {
		if err := writeExport(*traceOut, trc.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "alloysim: trace: %v\n", err)
			os.Exit(1)
		}
	}
	if *traceCSV != "" {
		if err := writeExport(*traceCSV, trc.WriteBreakdownCSV); err != nil {
			fmt.Fprintf(os.Stderr, "alloysim: trace-csv: %v\n", err)
			os.Exit(1)
		}
	}
	if trc != nil {
		spanDrops, brkDrops := trc.Dropped()
		fmt.Fprintf(os.Stderr, "alloysim: traced %d requests (%d spans / %d breakdowns dropped)\n",
			trc.Sampled(), spanDrops, brkDrops)
	}
	if *metricsOut != "" {
		if err := dumpMetrics(*metricsOut, reg); err != nil {
			fmt.Fprintf(os.Stderr, "alloysim: metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if *manifestOut != "" {
		man.Finish()
		if err := man.WriteFile(*manifestOut); err != nil {
			fmt.Fprintf(os.Stderr, "alloysim: manifest: %v\n", err)
			os.Exit(1)
		}
	}

	if *baseline && cfg.Design != core.DesignNone {
		bcfg := cfg
		bcfg.Design = core.DesignNone
		bcfg.Predictor = core.PredDefault
		base, err := run(ctx, bcfg, nil, nil, nil, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alloysim: baseline: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nbaseline exec:     %.0f cycles\n", base.ExecCycles)
		fmt.Printf("speedup:           %.3fx\n", res.SpeedupOver(base))
	}
}

func run(ctx context.Context, cfg core.Config, reg *obs.Registry, trc *obs.Tracer, ts *obs.TimeSeries, fr *obs.FlightRecorder) (core.Result, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	sys.EnableObservability(reg, trc)
	sys.EnableTimeSeries(ts)
	sys.EnableFlightRecorder(fr)
	return sys.RunContext(ctx)
}

// writeExport creates path and streams one export into it.
func writeExport(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpMetrics writes the registry in Prometheus text exposition format,
// or as a flat JSON object when the destination path ends in ".json".
// "-" selects stdout.
func dumpMetrics(dest string, reg *obs.Registry) error {
	w := io.Writer(os.Stdout)
	if dest != "-" {
		f, err := os.Create(dest)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if strings.HasSuffix(dest, ".json") {
		return reg.WriteJSON(w)
	}
	return reg.WritePrometheus(w)
}

func report(r core.Result) {
	fmt.Printf("workload:          %s\n", r.Workload)
	fmt.Printf("design:            %s (predictor %s)\n", r.Design, r.Predictor)
	fmt.Printf("execution:         %.0f cycles, %d instructions, IPC %.2f\n",
		r.ExecCycles, r.Instructions, r.IPC())
	fmt.Printf("L3:                %.1f%% hit rate (%d accesses)\n",
		100*r.L3.HitRate(), r.L3.Accesses())
	fmt.Printf("MPKI (below L3):   %.1f\n", r.MPKI)
	if r.Design != core.DesignNone {
		fmt.Printf("DRAM cache:        %.1f%% read hit rate, hit latency %.0f, miss latency %.0f\n",
			100*r.DCReadHitRate, r.HitLatency, r.MissLatency)
		fmt.Printf("row-buffer hits:   %.1f%%\n", 100*r.RowBufferHitRate)
		if r.Accuracy.Total() > 0 {
			fmt.Printf("prediction:        %.1f%% accurate (%d wasted parallel probes)\n",
				100*r.Accuracy.Overall(), r.WastedMemReads)
		}
	}
	fmt.Printf("off-chip traffic:  %d reads, %d writes\n", r.MemReads, r.MemWrites)
	if r.FootprintBytes > 0 {
		fmt.Printf("footprint:         %.1f MB (scaled)\n", float64(r.FootprintBytes)/(1<<20))
	}
}
