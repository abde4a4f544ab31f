package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
)

// FlightRecorder is the always-on black box: a fixed ring of the most
// recent epoch snapshots plus a sparse always-on tracer of recent request
// lifecycles. Where TimeSeries keeps the whole phase profile (and is
// opt-in), the recorder keeps only the last few dozen epochs at
// negligible cost, so when a run errors, a validate gate trips, or an
// operator sends SIGQUIT, the moments leading up to the event are
// recoverable after the fact.
//
// Same ownership contract as Tracer and TimeSeries: nil-safe methods,
// single-owner sampling on the simulation goroutine, deterministic
// hand-formatted export. Unlike TimeSeries the ring keeps the NEWEST
// rows — recency is the whole point of a flight recorder.
//
// Concurrent readers (the /debug/flightrecorder handler) must consume
// PublishSnapshot renderings, mirroring the Registry scrape contract;
// WriteJSON on a live recorder is only safe from the sampling goroutine
// or after the run.
type FlightRecorder struct {
	cols   []tsColumn
	data   []uint64 // ring, row-major; allocated once by seal
	cycles []uint64
	head   int // next write position
	n      int // rows retained (<= cap)
	cap    int
	drops  uint64

	trc *Tracer // sparse always-on lifecycle tracer; may be nil

	// rendered WriteJSON bytes for concurrent scrapers
	snap atomic.Pointer[[]byte]
}

// NewFlightRecorder creates a recorder retaining the last epochCap epoch
// rows (default 64) and a private tracer sampling one request in
// spanSample with ring capacity spanCap (spanSample=0 disables the
// tracer half; Tracer defaults apply to spanCap).
func NewFlightRecorder(epochCap int, spanSample uint64, spanCap int) *FlightRecorder {
	if epochCap <= 0 {
		epochCap = 64
	}
	return &FlightRecorder{
		cap: epochCap,
		trc: NewTracer(spanSample, spanCap),
	}
}

// Tracer returns the recorder's lifecycle tracer (nil when disabled).
func (f *FlightRecorder) Tracer() *Tracer {
	if f == nil {
		return nil
	}
	return f.trc
}

// AddColumn registers a named column; same contract as
// TimeSeries.AddColumn (cold-path, before the first Sample, panics on
// duplicates). FlightRecorder is a ColumnSink, so components register
// into it through the same RegisterTimeSeries methods.
func (f *FlightRecorder) AddColumn(name string, read func() uint64) {
	if f == nil {
		return
	}
	if f.data != nil {
		panic("obs: FlightRecorder.AddColumn after sampling started: " + name)
	}
	if !validName(name) {
		panic("obs: invalid column name: " + name)
	}
	for _, c := range f.cols {
		if c.name == name {
			panic("obs: duplicate column: " + name)
		}
	}
	f.cols = append(f.cols, tsColumn{name: name, read: read})
}

func (f *FlightRecorder) seal() {
	f.data = make([]uint64, f.cap*len(f.cols))
	f.cycles = make([]uint64, f.cap)
}

// Sample snapshots every column at the given engine cycle, overwriting
// the oldest row once the ring is full. Zero-alloc after the first call.
//
//alloyvet:hotpath
func (f *FlightRecorder) Sample(cycle uint64) {
	if f == nil {
		return
	}
	if f.data == nil {
		f.seal()
	}
	if f.n == f.cap {
		f.drops++
	} else {
		f.n++
	}
	f.cycles[f.head] = cycle
	base := f.head * len(f.cols)
	for i := range f.cols {
		f.data[base+i] = f.cols[i].read()
	}
	f.head++
	if f.head == f.cap {
		f.head = 0
	}
}

// Len returns the number of retained epoch rows.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	return f.n
}

// Drops returns how many epoch rows were overwritten.
func (f *FlightRecorder) Drops() uint64 {
	if f == nil {
		return 0
	}
	return f.drops
}

// Columns returns the registered column names in registration order.
func (f *FlightRecorder) Columns() []string {
	if f == nil {
		return nil
	}
	names := make([]string, len(f.cols))
	for i, c := range f.cols {
		names[i] = c.name
	}
	return names
}

// eachRow visits retained rows oldest-first with the row's ring index.
func (f *FlightRecorder) eachRow(fn func(ring int) error) error {
	start := f.head - f.n
	if start < 0 {
		start += f.cap
	}
	for i := 0; i < f.n; i++ {
		if err := fn((start + i) % f.cap); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the ring (oldest-first) and the recent sampled spans
// as one object with a fixed field order, hand-formatted so identical
// states produce byte-identical dumps. It is the reference rendering that
// AppendJSON must reproduce byte for byte:
//
//	{"columns":[...],"drops":N,"rows":[["cycle",v...],...],
//	 "spans_sampled":S,"spans":[{...},...]}
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString(`{"columns":["cycle"`)
	if f != nil {
		for _, c := range f.cols {
			fmt.Fprintf(&sb, ",%q", c.name)
		}
	}
	fmt.Fprintf(&sb, `],"drops":%d,"rows":[`, f.Drops())
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	if f != nil {
		first := true
		err := f.eachRow(func(ring int) error {
			sb.Reset()
			if !first {
				sb.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&sb, "\n[%d", f.cycles[ring])
			base := ring * len(f.cols)
			for i := range f.cols {
				fmt.Fprintf(&sb, ",%d", f.data[base+i])
			}
			sb.WriteByte(']')
			_, err := io.WriteString(w, sb.String())
			return err
		})
		if err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n],\"spans_sampled\":%d,\"spans\":[", f.Tracer().Sampled()); err != nil {
		return err
	}
	if t := f.Tracer(); t != nil {
		first := true
		err := t.eachSpan(func(s *Span) error {
			sep := ",\n"
			if first {
				sep = "\n"
				first = false
			}
			hit := 0
			if s.Hit {
				hit = 1
			}
			_, err := fmt.Fprintf(w,
				"%s{\"req\":%d,\"kind\":%q,\"start\":%d,\"dur\":%d,\"core\":%d,\"line\":%d,\"hit\":%d}",
				sep, s.ReqID, s.Kind.String(), s.Start, s.Dur, s.Core, s.Line, hit)
			return err
		})
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// AppendJSON appends exactly WriteJSON's bytes to dst and returns the
// extended slice. It formats with strconv instead of fmt, so rendering a
// dump costs only dst's growth: the Runner renders every point's dump
// this way and keeps the bytes, never the recorder (whose column
// closures pin the whole simulated system).
func (f *FlightRecorder) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"columns":["cycle"`...)
	if f != nil {
		for _, c := range f.cols {
			dst = append(dst, ',')
			dst = strconv.AppendQuote(dst, c.name)
		}
	}
	dst = append(dst, `],"drops":`...)
	dst = strconv.AppendUint(dst, f.Drops(), 10)
	dst = append(dst, `,"rows":[`...)
	if f != nil {
		start := f.head - f.n
		if start < 0 {
			start += f.cap
		}
		for i := 0; i < f.n; i++ {
			ring := (start + i) % f.cap
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, "\n["...)
			dst = strconv.AppendUint(dst, f.cycles[ring], 10)
			base := ring * len(f.cols)
			for _, v := range f.data[base : base+len(f.cols)] {
				dst = append(dst, ',')
				dst = strconv.AppendUint(dst, v, 10)
			}
			dst = append(dst, ']')
		}
	}
	dst = append(dst, "\n],\"spans_sampled\":"...)
	t := f.Tracer()
	dst = strconv.AppendUint(dst, t.Sampled(), 10)
	dst = append(dst, `,"spans":[`...)
	if t != nil {
		first := true
		// eachSpan's callback never fails here.
		_ = t.eachSpan(func(s *Span) error {
			if first {
				dst = append(dst, '\n')
				first = false
			} else {
				dst = append(dst, ",\n"...)
			}
			dst = append(dst, `{"req":`...)
			dst = strconv.AppendUint(dst, s.ReqID, 10)
			dst = append(dst, `,"kind":`...)
			dst = strconv.AppendQuote(dst, s.Kind.String())
			dst = append(dst, `,"start":`...)
			dst = strconv.AppendUint(dst, s.Start, 10)
			dst = append(dst, `,"dur":`...)
			dst = strconv.AppendUint(dst, s.Dur, 10)
			dst = append(dst, `,"core":`...)
			dst = strconv.AppendInt(dst, int64(s.Core), 10)
			dst = append(dst, `,"line":`...)
			dst = strconv.AppendUint(dst, s.Line, 10)
			if s.Hit {
				dst = append(dst, `,"hit":1}`...)
			} else {
				dst = append(dst, `,"hit":0}`...)
			}
			return nil
		})
	}
	return append(dst, "\n]}\n"...)
}

// PublishSnapshot renders the current state and stores it for concurrent
// scrapers; call from the sampling goroutine at synchronization points
// (the same place Registry.PublishSnapshot is called). Until the first
// publish, Snapshot reports nothing and the debug handler falls back to
// a live dump — only correct when no simulation is mid-flight.
func (f *FlightRecorder) PublishSnapshot() {
	if f == nil {
		return
	}
	b := f.AppendJSON(nil)
	f.snap.Store(&b)
}

// Snapshot returns the most recently published rendering.
func (f *FlightRecorder) Snapshot() ([]byte, bool) {
	if f == nil {
		return nil, false
	}
	if p := f.snap.Load(); p != nil {
		return *p, true
	}
	return nil, false
}
