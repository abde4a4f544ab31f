package experiments

import (
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"alloysim/internal/core"
)

// syncBuffer lets the test read slog output without racing the runner's
// worker goroutines.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestRequestIDContext: the context helpers round-trip and tolerate both
// an empty ID and an unadorned context.
func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if got := RequestIDFrom(ctx); got != "" {
		t.Fatalf("bare context has req id %q", got)
	}
	if got := RequestIDFrom(WithRequestID(ctx, "")); got != "" {
		t.Fatalf("empty id stored: %q", got)
	}
	if got := RequestIDFrom(WithRequestID(ctx, "j-000042")); got != "j-000042" {
		t.Fatalf("round trip gave %q", got)
	}
}

// TestRunnerLogsCarryRequestID: slog records the runner emits under a
// correlated context are tagged with the request ID, and the legacy
// progress lines are unaffected.
func TestRunnerLogsCarryRequestID(t *testing.T) {
	var buf syncBuffer
	p := microParams()
	p.Logger = slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	r := NewRunner(p)
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		return core.Result{ExecCycles: 1}, nil
	}
	ctx := WithRequestID(context.Background(), "j-000007")
	if _, err := r.Run(ctx, "mcf_r", core.DesignAlloy, core.PredDefault, 0); err != nil {
		t.Fatal(err)
	}
	logs := buf.String()
	if !strings.Contains(logs, "point complete") || !strings.Contains(logs, "req_id=j-000007") {
		t.Fatalf("log missing correlated completion record:\n%s", logs)
	}
}

// TestRunnerFlightDumpRetention: a real micro run leaves a flight dump
// retrievable by point and as the most recent recording; DisableFlight
// suppresses it.
func TestRunnerFlightDumpRetention(t *testing.T) {
	r := NewRunner(microParams())
	pt := Point{Workload: "mcf_r", Design: core.DesignAlloy, Predictor: core.PredDefault}
	if _, err := r.Run(context.Background(), pt.Workload, pt.Design, pt.Predictor, 0); err != nil {
		t.Fatal(err)
	}
	dump, ok := r.FlightDump(pt)
	if !ok {
		t.Fatal("no flight dump retained after a successful run")
	}
	if !strings.Contains(dump, `"columns":["cycle"`) || !strings.Contains(dump, `"spans_sampled":`) {
		t.Fatalf("dump missing schema markers: %.120s", dump)
	}
	lastPt, lastDump, ok := r.LastFlightDump()
	if !ok || lastDump != dump || r.normalize(pt) != lastPt {
		t.Fatalf("LastFlightDump mismatch: ok=%v pt=%v", ok, lastPt)
	}

	off := microParams()
	off.DisableFlight = true
	r2 := NewRunner(off)
	if _, err := r2.Run(context.Background(), pt.Workload, pt.Design, pt.Predictor, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := r2.FlightDump(pt); ok {
		t.Fatal("DisableFlight still recorded a dump")
	}
}

// TestFailureRecordCarriesFlight: when a point fails after its simulation
// ran, the failure record carries the flight dump the attempt left
// behind, and WriteSummary flags the attachment.
func TestFailureRecordCarriesFlight(t *testing.T) {
	r := NewRunner(microParams())
	key := r.normalize(Point{Workload: "mcf_r", Design: core.DesignAlloy})
	r.noteFlight(key, []byte(`{"columns":["cycle"],"drops":0,"rows":[]}`))
	r.recordFailure(key, 2, errors.New("post-run gate trip"))

	recs := r.FailureRecords()
	if len(recs) != 1 || recs[0].Flight == "" {
		t.Fatalf("failure records %+v, want one with a flight dump", recs)
	}
	var sb strings.Builder
	r.WriteSummary(&sb)
	if !strings.Contains(sb.String(), "[flight recording attached]") {
		t.Fatalf("summary missing attachment note:\n%s", sb.String())
	}
}

// TestFlightRetentionEvictsOldest: the ring keeps only the newest
// flightCap dumps.
func TestFlightRetentionEvictsOldest(t *testing.T) {
	r := NewRunner(microParams())
	for i := 0; i < flightCap+4; i++ {
		r.noteFlight(Point{Workload: "w", CacheMB: uint64(i + 1)}, []byte("dump"))
	}
	r.mu.Lock()
	n := len(r.flights)
	oldest := r.flights[0].pt
	r.mu.Unlock()
	if n != flightCap {
		t.Fatalf("retained %d dumps, want %d", n, flightCap)
	}
	if oldest.CacheMB != 5 {
		t.Fatalf("oldest retained point %v, want the 5th insert", oldest)
	}
}
