package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"alloysim/internal/obs"
)

// runWithTelemetry runs cfg with a TimeSeries and FlightRecorder attached
// and returns the result plus both samplers.
func runWithTelemetry(t *testing.T, cfg Config) (Result, *obs.TimeSeries, *obs.FlightRecorder) {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := obs.NewTimeSeries(1 << 12)
	fr := obs.NewFlightRecorder(32, 1024, 256)
	s.EnableTimeSeries(ts)
	s.EnableFlightRecorder(fr)
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, ts, fr
}

// TestTelemetryInert is TestObservabilityInert for the phase samplers: a
// run with a TimeSeries and an always-on FlightRecorder (including its
// sparse lifecycle tracer installed as the system tracer) must produce a
// Result identical in every field to a plain run.
func TestTelemetryInert(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	plain := runOne(t, cfg)
	instr, ts, fr := runWithTelemetry(t, cfg)
	if !reflect.DeepEqual(plain, instr) {
		t.Fatalf("telemetry perturbed the simulation:\nplain %+v\ninstr %+v", plain, instr)
	}
	if ts.Len() < 2 {
		t.Fatalf("TimeSeries sampled %d epochs, want >= 2 (epoch 0 + drain)", ts.Len())
	}
	if fr.Len() < 2 {
		t.Fatalf("FlightRecorder retained %d epochs, want >= 2", fr.Len())
	}
}

// TestTimeSeriesReconcilesWithResult: the final epoch row snapshots the
// end-of-run counters, so its values must agree with the Result the same
// run returned.
func TestTimeSeriesReconcilesWithResult(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	res, ts, _ := runWithTelemetry(t, cfg)
	last := ts.Len() - 1
	check := func(col string, want uint64) {
		t.Helper()
		i := ts.ColumnIndex(col)
		if i < 0 {
			t.Fatalf("column %s not registered", col)
		}
		if got := ts.Value(last, i); got != want {
			t.Errorf("%s final epoch = %d, Result says %d", col, got, want)
		}
	}
	check("below_reads_total", res.BelowReads)
	check("below_writes_total", res.BelowWrites)
	check("wasted_mem_reads_total", res.WastedMemReads)
	check("l3_hits_total", res.L3.Hits)
	check("l3_misses_total", res.L3.Misses)
	check("dram_offchip_reads_total", res.MemStats.Reads)
	check("dram_stacked_reads_total", res.StackedStats.Reads)
	check("predictor_cache_pred_mem_total", res.Accuracy.CachePredMem)
	check("predictor_mem_pred_mem_total", res.Accuracy.MemPredMem)

	// Monotonicity of counter columns across epochs.
	for _, col := range []string{"below_reads_total", "l3_misses_total", "dram_offchip_reads_total"} {
		i := ts.ColumnIndex(col)
		var prev uint64
		for r := 0; r < ts.Len(); r++ {
			v := ts.Value(r, i)
			if v < prev {
				t.Fatalf("%s not monotone at epoch %d: %d < %d", col, r, v, prev)
			}
			prev = v
		}
	}
	// Cycle column strictly increases.
	for r := 1; r < ts.Len(); r++ {
		if ts.Cycle(r) <= ts.Cycle(r-1) {
			t.Fatalf("cycle not increasing at epoch %d: %d <= %d", r, ts.Cycle(r), ts.Cycle(r-1))
		}
	}
}

// TestPerBankColumnsSumToReads: the stacked device's per-bank access
// columns partition its total read count.
func TestPerBankColumnsSumToReads(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	res, ts, _ := runWithTelemetry(t, cfg)
	last := ts.Len() - 1
	var sum uint64
	n := 0
	for i, col := range ts.Columns() {
		if strings.HasPrefix(col, "dram_stacked_bank") && strings.HasSuffix(col, "_accesses_total") {
			sum += ts.Value(last, i)
			n++
		}
	}
	if n == 0 {
		t.Fatal("no per-bank columns registered")
	}
	if sum != res.StackedStats.Reads {
		t.Fatalf("per-bank accesses sum %d != stacked reads %d (over %d banks)", sum, res.StackedStats.Reads, n)
	}
}

// TestTimeSeriesDeterministic is the acceptance gate: the phase export
// is a pure function of the configuration, so repeated runs export
// identical bytes. The private L2 keeps the front-end's state in the
// sampled path.
func TestTimeSeriesDeterministic(t *testing.T) {
	cfg := DefaultConfig("mcf_r")
	cfg.InstructionsPerCore = 40_000
	cfg.WarmupRefs = 3_000
	cfg.GapScale = 2
	cfg.L2Bytes = 1 << 20
	export := func() string {
		_, ts, _ := runWithTelemetry(t, cfg)
		var sb strings.Builder
		if err := ts.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		if err := ts.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if export() != export() {
		t.Fatal("repeated runs exported different bytes")
	}
}

// TestFlightRecorderCapturesRecentState: after a run the recorder's dump
// contains the most recent epochs and parses as the documented schema.
func TestFlightRecorderCapturesRecentState(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	_, ts, fr := runWithTelemetry(t, cfg)
	var sb strings.Builder
	if err := fr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	dump := sb.String()
	if !strings.Contains(dump, `"columns":["cycle","sim_engine_events_total"`) {
		t.Fatalf("dump missing column header: %s", dump[:120])
	}
	if !strings.Contains(dump, `"spans_sampled":`) {
		t.Fatal("dump missing spans section")
	}
	// The recorder's newest row is the same final epoch the TimeSeries
	// kept, so their last cycles agree.
	lastCycle := ts.Cycle(ts.Len() - 1)
	if fr.Len() == 0 {
		t.Fatal("empty recorder after run")
	}
	wantFrag := "[" + uitoa(lastCycle) + ","
	if !strings.Contains(dump, wantFrag) {
		t.Fatalf("dump missing final epoch row at cycle %d", lastCycle)
	}
}

func uitoa(v uint64) string {
	var sb strings.Builder
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	sb.Write(buf[i:])
	return sb.String()
}

// TestFlightAppendJSONMatchesWriteJSON: the Runner keeps AppendJSON's
// bytes as each point's dump, so they must equal the reference WriteJSON
// rendering exactly, for designs that register different columns (no
// DRAM cache, direct-mapped, set-associative, hybrid), with both the
// epoch ring and the span ring wrapped.
func TestFlightAppendJSONMatchesWriteJSON(t *testing.T) {
	for _, d := range []Design{DesignNone, DesignAlloy, DesignLH, DesignGemini} {
		s, err := NewSystem(smallConfig("mcf_r", d))
		if err != nil {
			t.Fatal(err)
		}
		fr := obs.NewFlightRecorder(4, 64, 16)
		s.EnableFlightRecorder(fr)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if fr.Drops() == 0 || fr.Tracer().Sampled() <= 16 {
			t.Fatalf("%s: rings did not wrap (drops %d, spans %d)", d, fr.Drops(), fr.Tracer().Sampled())
		}
		var want bytes.Buffer
		if err := fr.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		got := fr.AppendJSON(prefix)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
			t.Fatalf("%s: AppendJSON differs from WriteJSON:\n%s\nvs\n%s", d, got[len(prefix):], want.Bytes())
		}
	}
	var nilRec *obs.FlightRecorder
	var want bytes.Buffer
	if err := nilRec.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if got := nilRec.AppendJSON(nil); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("nil recorder: AppendJSON %q, WriteJSON %q", got, want.Bytes())
	}
}
