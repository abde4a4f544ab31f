package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"alloysim/internal/stats"
)

func TestRegistryValues(t *testing.T) {
	r := NewRegistry()
	// The production shape: a component's own stats.Counter field, read
	// back at dump time. Increments after registration must show.
	var reads stats.Counter
	r.RegisterCounterFunc("reads_total", "reads", reads.Value)
	reads.Add(3)
	reads.Inc()

	depth := 2.5
	r.RegisterGaugeFunc("depth", "queue depth", func() float64 { return depth })
	depth -= 0.5
	var hits uint64 = 7
	r.RegisterCounterFunc("hits_total", "hits", func() uint64 { return hits })
	r.RegisterGaugeFunc("rate", "hit rate", func() float64 { return 0.25 })
	h := stats.NewHistogram(10, 4)
	h.Observe(3)
	h.Observe(30)
	r.RegisterHistogram("lat", "latency", h)

	for _, tc := range []struct {
		name string
		want float64
	}{
		{"reads_total", 4},
		{"depth", 2},
		{"hits_total", 7},
		{"rate", 0.25},
		{"lat", 2}, // histograms report their sample count
	} {
		got, ok := r.Value(tc.name)
		if !ok || got != tc.want {
			t.Errorf("Value(%q) = %v, %v; want %v, true", tc.name, got, ok, tc.want)
		}
	}
	if _, ok := r.Value("missing"); ok {
		t.Errorf("Value(missing) reported ok")
	}
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	zero := func() uint64 { return 0 }
	r.RegisterCounterFunc("a_total", "", zero)
	expectPanic("duplicate", func() { r.RegisterCounterFunc("a_total", "", zero) })
	expectPanic("duplicate across kinds", func() { r.RegisterGaugeFunc("a_total", "", func() float64 { return 0 }) })
	expectPanic("invalid char", func() { r.RegisterCounterFunc("a-b", "", zero) })
	expectPanic("leading digit", func() { r.RegisterCounterFunc("9lives", "", zero) })
	expectPanic("empty", func() { r.RegisterCounterFunc("", "", zero) })
}

func TestWritePrometheusSortedAndParsable(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounterFunc("zz_total", "last", func() uint64 { return 2 })
	r.RegisterCounterFunc("aa_total", "first", func() uint64 { return 1 })
	h := stats.NewHistogram(10, 8)
	h.Observe(5)
	h.Observe(15)
	h.Observe(999) // overflow bucket
	r.RegisterHistogram("lat", "latency", h)
	r.RegisterGaugeFunc("mid", "a gauge", func() float64 { return 1.5 })

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Index(out, "aa_total") > strings.Index(out, "zz_total") ||
		strings.Index(out, "lat_bucket") > strings.Index(out, "mid") {
		t.Fatalf("output not sorted by name:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE aa_total counter\naa_total 1\n",
		"# TYPE zz_total counter\nzz_total 2\n",
		"# TYPE mid gauge\nmid 1.5\n",
		"# TYPE lat histogram\n",
		"lat_bucket{le=\"10\"} 1\n",
		"lat_bucket{le=\"20\"} 2\n",
		"lat_bucket{le=\"+Inf\"} 3\n",
		"lat_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteJSONValid(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounterFunc("c_total", "", func() uint64 { return 9 })
	r.RegisterGaugeFunc("g", "", func() float64 { return 0.5 })
	h := stats.NewHistogram(4, 16)
	for i := uint64(1); i <= 10; i++ {
		h.Observe(i)
	}
	r.RegisterHistogram("h", "", h)

	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(b.Bytes(), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if m["c_total"] != 9 || m["g"] != 0.5 || m["h_count"] != 10 {
		t.Fatalf("unexpected values: %v", m)
	}
	if m["h_mean"] != 5.5 {
		t.Fatalf("h_mean = %v, want 5.5", m["h_mean"])
	}
}

func TestTracerSamplingDeterministic(t *testing.T) {
	tr := NewTracer(3, 16)
	var ids []uint64
	for i := 0; i < 10; i++ {
		ids = append(ids, tr.Sample())
	}
	want := []uint64{0, 0, 1, 0, 0, 2, 0, 0, 3, 0}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Sample()[%d] = %d, want %d (got %v)", i, ids[i], want[i], ids)
		}
	}
	if tr.Sampled() != 3 {
		t.Fatalf("Sampled() = %d, want 3", tr.Sampled())
	}
}

func TestTracerNilAndDisabled(t *testing.T) {
	if NewTracer(0, 8) != nil {
		t.Fatal("NewTracer(0, _) should return the nil (disabled) tracer")
	}
	var tr *Tracer
	if id := tr.Sample(); id != 0 {
		t.Fatalf("nil tracer Sample() = %d, want 0", id)
	}
	tr.Span(1, SpanRead, 0, 0, 0, 5, false) // must not panic
	tr.Record(Breakdown{ReqID: 1})
	if n := tr.Sampled(); n != 0 {
		t.Fatalf("nil Sampled() = %d", n)
	}
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var v map[string]interface{}
	if err := json.Unmarshal(b.Bytes(), &v); err != nil {
		t.Fatalf("empty trace not valid JSON: %v\n%s", err, b.String())
	}
	b.Reset()
	if err := tr.WriteBreakdownCSV(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != csvHeader {
		t.Fatalf("nil CSV = %q, want header only", b.String())
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := uint64(1); i <= 6; i++ {
		id := tr.Sample()
		tr.Span(id, SpanRead, 0, i, i*100, 10, false)
		tr.Record(Breakdown{ReqID: id, Total: i})
	}
	spanDrops, brkDrops := tr.Dropped()
	if spanDrops != 2 || brkDrops != 2 {
		t.Fatalf("Dropped() = %d, %d; want 2, 2", spanDrops, brkDrops)
	}
	var got []uint64
	if err := tr.eachSpan(func(s *Span) error { got = append(got, s.Line); return nil }); err != nil {
		t.Fatal(err)
	}
	want := []uint64{3, 4, 5, 6} // most recent four, oldest first
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("retained spans = %v, want %v", got, want)
	}
}

func TestTracerZeroDurationSpanSkipped(t *testing.T) {
	tr := NewTracer(1, 4)
	id := tr.Sample()
	tr.Span(id, SpanPredict, 0, 1, 10, 0, false)
	if tr.spanLen != 0 {
		t.Fatalf("zero-duration span was recorded")
	}
}

// TestTracerExportsByteIdentical runs the same deterministic recording
// sequence twice and requires byte-identical Chrome JSON and CSV.
func TestTracerExportsByteIdentical(t *testing.T) {
	record := func() (string, string) {
		tr := NewTracer(2, 32)
		for i := uint64(0); i < 40; i++ {
			id := tr.Sample()
			if id == 0 {
				continue
			}
			hit := i%3 == 0
			tr.Span(id, SpanRead, int32(i%4), i, i*50, 120, hit)
			tr.Span(id, SpanDCBank, int32(i%4), i, i*50+10, 30, hit)
			tr.Record(Breakdown{
				ReqID: id, Core: int32(i % 4), Line: i, Hit: hit,
				Start: i * 50, Total: 120,
				Pred: 10, CacheBank: 30, CacheBus: 20, CacheBurst: 16, Other: 44,
			})
		}
		var cj, cs bytes.Buffer
		if err := tr.WriteChromeTrace(&cj); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteBreakdownCSV(&cs); err != nil {
			t.Fatal(err)
		}
		return cj.String(), cs.String()
	}
	j1, c1 := record()
	j2, c2 := record()
	if j1 != j2 {
		t.Errorf("Chrome traces differ across identical runs")
	}
	if c1 != c2 {
		t.Errorf("CSVs differ across identical runs")
	}
	var v struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(j1), &v); err != nil {
		t.Fatalf("Chrome trace not valid JSON: %v", err)
	}
	if len(v.TraceEvents) != 32 {
		t.Fatalf("traceEvents = %d, want 32 (ring capacity)", len(v.TraceEvents))
	}
	if ph := v.TraceEvents[0]["ph"]; ph != "X" {
		t.Fatalf("ph = %v, want X", ph)
	}
}

func TestMeanBreakdownAdditive(t *testing.T) {
	tr := NewTracer(1, 8)
	for i := uint64(1); i <= 4; i++ {
		id := tr.Sample()
		tr.Record(Breakdown{
			ReqID: id, Total: 100 * i,
			Pred: 10 * i, CacheBank: 40 * i, CacheBurst: 30 * i, Other: 20 * i,
		})
	}
	mean, n := tr.MeanBreakdown()
	if n != 4 {
		t.Fatalf("n = %d, want 4", n)
	}
	sum := mean.Pred + mean.CacheQueue + mean.CacheBank + mean.CacheBus + mean.CacheBurst +
		mean.MemQueue + mean.MemBank + mean.MemBus + mean.MemBurst + mean.Other
	if sum != mean.Total {
		t.Fatalf("component sum %d != mean total %d", sum, mean.Total)
	}
	if mean.Total != 250 {
		t.Fatalf("mean total = %d, want 250", mean.Total)
	}
}

func TestSyncWriterNoInterleave(t *testing.T) {
	var buf bytes.Buffer
	w := NewSyncWriter(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w.Printf("worker=%d line=%d tail\n", g, i)
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "worker=") || !strings.HasSuffix(l, " tail") {
			t.Fatalf("interleaved line: %q", l)
		}
	}
}

func TestSyncWriterNilSafe(t *testing.T) {
	var w *SyncWriter
	w.Printf("dropped %d\n", 1)
	if n, err := w.Write([]byte("x")); n != 1 || err != nil {
		t.Fatalf("nil Write = %d, %v", n, err)
	}
	d := NewSyncWriter(nil)
	d.Printf("dropped %d\n", 2)
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest("alloysim-test", []string{"-workload", "mcf_r"})
	m.ParamsFingerprint = "deadbeef"
	m.Seed = 42
	m.Extra["design"] = "alloy"
	m.Finish()
	path := t.TempDir() + "/run.manifest.json"
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Tool != "alloysim-test" || got.ParamsFingerprint != "deadbeef" ||
		got.Seed != 42 || got.GoVersion == "" || got.Extra["design"] != "alloy" {
		t.Fatalf("manifest round-trip mismatch: %+v", got)
	}
	if got.WallSeconds < 0 {
		t.Fatalf("negative wall time: %v", got.WallSeconds)
	}
}
