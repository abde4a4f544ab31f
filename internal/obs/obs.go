// Package obs is the simulator's observability layer: a typed metrics
// registry, a sampling per-request latency tracer, a serialized log
// writer, and run manifests — all engineered to cost nothing when turned
// off and almost nothing when on.
//
// The design splits responsibilities so no hot path ever touches a map or
// an interface:
//
//   - Hot paths increment plain stats.Counter fields they own directly.
//     The //alloyvet:hotpath analyzer verifies those paths allocate
//     nothing.
//   - The Registry only remembers how to read those fields. Components
//     register a read-back closure (RegisterCounterFunc/RegisterGaugeFunc)
//     or a histogram once at setup; lookups, sorting, and formatting
//     happen exclusively at dump time.
//   - The Tracer records fixed-size span records into a preallocated ring
//     buffer; sampling is a deterministic 1-in-N counter, never a clock
//     or RNG, so traced runs remain byte-reproducible.
//
// Everything here is single-writer by design, like the simulator it
// instruments: one System owns one Registry and one Tracer. Concurrent
// *readers* — the alloysimd daemon serves /metrics to many HTTP clients
// while simulations run — are handled by the snapshot path: the goroutine
// that owns the metrics calls PublishSnapshot, which renders the whole
// registry and atomically swaps the rendered bytes in; scrape handlers
// serve the snapshot and never touch live fields. The old "torn reads
// are harmless for eyeballing" escape hatch is gone: a registry is
// either dumped live by a reader that is synchronized with its writers
// (the CLIs dumping after the run, Func metrics locking their owner's
// mutex), or scraped through a published snapshot. Hot-path writes stay
// plain single-writer field increments — zero allocations and zero added
// cycles. SyncWriter serializes log lines from the experiment runner's
// worker goroutines.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"alloysim/internal/stats"
)

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounterFunc metricKind = iota
	kindGaugeFunc
	kindHistogram
)

// metric is one registered name. Exactly one of the payload fields is
// set, according to kind.
type metric struct {
	name string
	help string
	kind metricKind

	counterFn func() uint64
	gaugeFn   func() float64
	hist      *stats.Histogram
}

// value returns the metric's current scalar reading (histograms report
// their sample count).
func (m *metric) value() float64 {
	switch m.kind {
	case kindCounterFunc:
		return float64(m.counterFn())
	case kindGaugeFunc:
		return m.gaugeFn()
	case kindHistogram:
		return float64(m.hist.N())
	}
	return 0
}

// Registry is the central metric index. Registration happens at setup
// and may allocate freely; dumping sorts by name so output is
// deterministic. The index itself is guarded by a mutex so late
// registration (a daemon wiring a new component) cannot race a
// concurrent scrape; the lock is never touched on metric hot paths,
// which increment their own stats.Counter fields directly. The zero
// Registry is not usable — call NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	metrics []metric       //alloyvet:guard mu
	byName  map[string]int //alloyvet:guard mu (index into metrics, duplicate detection)

	// snap is the last published rendering (see PublishSnapshot). Nil
	// until the first publish; the debug server serves live dumps then.
	snap atomic.Pointer[renderedSnapshot]
}

// renderedSnapshot is one immutable, fully-rendered dump of the registry.
type renderedSnapshot struct {
	prom []byte // Prometheus text exposition
	json []byte // flat JSON (expvar style)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// register validates and stores one entry. Duplicate or malformed names
// panic: both are registration-site bugs, not runtime conditions.
func (r *Registry) register(m metric) {
	if !validName(m.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", m.name))
	}
	r.byName[m.name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// validName accepts Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// RegisterCounterFunc exposes a counter read through fn at dump time.
// This is how components with pre-existing plain stat fields (cache
// hits, DRAM reads) join the registry without changing their hot paths.
func (r *Registry) RegisterCounterFunc(name, help string, fn func() uint64) {
	r.register(metric{name: name, help: help, kind: kindCounterFunc, counterFn: fn})
}

// RegisterGaugeFunc exposes a level read through fn at dump time.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() float64) {
	r.register(metric{name: name, help: help, kind: kindGaugeFunc, gaugeFn: fn})
}

// RegisterHistogram exposes a stats.Histogram. The registry does not own
// or copy it: observations keep going through the histogram's own
// Observe on the hot path.
func (r *Registry) RegisterHistogram(name, help string, h *stats.Histogram) {
	r.register(metric{name: name, help: help, kind: kindHistogram, hist: h})
}

// Value reads the current value of the named metric (histograms report
// their count). The bool reports whether the name is registered.
func (r *Registry) Value(name string) (float64, bool) {
	r.mu.RLock()
	i, ok := r.byName[name]
	var m metric
	if ok {
		m = r.metrics[i]
	}
	r.mu.RUnlock()
	if !ok {
		return 0, false
	}
	// The value read happens outside the index lock: Func metrics may
	// take their owner's lock (the runner's), and holding r.mu across a
	// foreign lock invites ordering deadlocks.
	return m.value(), true
}

// sorted returns the metrics ordered by name; dump output must not
// depend on registration order. The copy is taken under the index lock,
// but values are read afterwards, outside it.
func (r *Registry) sorted() []metric {
	r.mu.RLock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, sorted by name. Histograms delegate to
// stats.Histogram.WriteText so the obs layer and the pre-existing
// latency histograms share one encoder.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.sorted() {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		switch m.kind {
		case kindCounterFunc:
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.counterFn()); err != nil {
				return err
			}
		case kindGaugeFunc:
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", m.name, m.name, formatFloat(m.value())); err != nil {
				return err
			}
		case kindHistogram:
			if err := m.hist.WriteText(w, m.name); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders the metrics as a single flat JSON object in sorted
// name order (expvar style). Histograms expand into count/mean/max and
// p50/p95/p99 quantile fields.
func (r *Registry) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{")
	first := true
	field := func(name, val string) {
		if !first {
			b.WriteString(",")
		}
		first = false
		fmt.Fprintf(&b, "%q:%s", name, val)
	}
	for _, m := range r.sorted() {
		switch m.kind {
		case kindCounterFunc:
			field(m.name, fmt.Sprintf("%d", m.counterFn()))
		case kindGaugeFunc:
			field(m.name, formatFloat(m.value()))
		case kindHistogram:
			h := m.hist
			field(m.name+"_count", fmt.Sprintf("%d", h.N()))
			field(m.name+"_mean", formatFloat(h.Mean()))
			field(m.name+"_max", fmt.Sprintf("%d", h.Max()))
			field(m.name+"_p50", formatFloat(h.Quantile(0.50)))
			field(m.name+"_p95", formatFloat(h.Quantile(0.95)))
			field(m.name+"_p99", formatFloat(h.Quantile(0.99)))
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a float compactly and deterministically: integers
// lose the trailing ".000000", everything else keeps %g's shortest form.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}

// PublishSnapshot renders the whole registry (Prometheus text and JSON)
// and atomically publishes the result for concurrent scrapers. It MUST
// be called by a goroutine that is allowed to read every registered
// metric — in practice the goroutine that owns them: the simulation loop
// between quanta, or a daemon thread whose metrics are all atomic or
// lock-guarded Func reads. Scrape handlers (see DebugMux) serve the last
// published snapshot without ever touching live fields, which is what
// makes many concurrent daemon clients race-free against a running
// simulation. Publishing is cold-path: it allocates and formats freely.
func (r *Registry) PublishSnapshot() {
	var prom, js bytes.Buffer
	r.WritePrometheus(&prom) //nolint:errcheck // bytes.Buffer cannot fail
	r.WriteJSON(&js)         //nolint:errcheck // bytes.Buffer cannot fail
	r.snap.Store(&renderedSnapshot{prom: prom.Bytes(), json: js.Bytes()})
}

// Snapshot returns the last published rendering. ok is false before the
// first PublishSnapshot. The returned slices are immutable.
func (r *Registry) Snapshot() (prom, json []byte, ok bool) {
	s := r.snap.Load()
	if s == nil {
		return nil, nil, false
	}
	return s.prom, s.json, true
}
