// Package hot is golden testdata for the hotpath analyzer: every allocation
// class fires exactly once inside an annotated function, and the same
// constructs stay silent in unannotated code, in invariants-guarded blocks,
// and on allowlisted lines.
package hot

import (
	"fmt"

	"testdata/internal/invariants"
	"testdata/internal/obs"
)

type counter struct{ n int }

type gather struct{ buf []uint64 }

func consume(v any) { _ = v }

//alloyvet:hotpath
func Capture(x int) int {
	f := func() int { return x } // want `closure captures "x"`
	return f()
}

//alloyvet:hotpath
func Format(n int) string {
	return fmt.Sprintf("n=%d", n) // want `fmt.Sprintf formats and allocates`
}

//alloyvet:hotpath
func Box(n int) {
	consume(n) // want `int boxed into any may allocate`
}

//alloyvet:hotpath
func Convert(n int) any {
	v := any(n) // want `int boxed into any may allocate`
	return v
}

//alloyvet:hotpath
func BoxReturn() any {
	return counter{} // want `counter boxed into any may allocate`
}

// BoxPointer passes a pointer: stored directly in the interface word, no
// allocation, no diagnostic. This is the pre-bound sim.Handler pattern.
//
//alloyvet:hotpath
func BoxPointer(c *counter) {
	consume(c)
}

//alloyvet:hotpath
func (g *gather) Append(v uint64) {
	g.buf = append(g.buf, v) // want `append result escapes to g.buf`
}

// LocalAppend reuses a buffer it owns: amortized-free, no diagnostic.
//
//alloyvet:hotpath
func LocalAppend(vs []uint64, v uint64) int {
	vs = append(vs, v)
	return len(vs)
}

//alloyvet:hotpath
func Allocate(n int) int {
	buf := make([]byte, n) // want `make allocates`
	p := new(counter)      // want `new allocates`
	q := &counter{n: n}    // want `address of composite literal allocates`
	return len(buf) + p.n + q.n
}

// Guarded boxes Failf arguments only inside an invariants.Enabled branch:
// dead code in release builds, so the analyzer must stay silent.
//
//alloyvet:hotpath
func Guarded(occ uint64, n int) {
	if invariants.Enabled && occ == 0 {
		invariants.Failf("slot %d empty", n)
	}
}

//alloyvet:hotpath
func Allowed(n int) []byte {
	return make([]byte, n) //alloyvet:allow(hotpath) cold init path
}

// Metered consults the metrics registry per event instead of keeping the
// count in a field: a map lookup on every call.
//
//alloyvet:hotpath
func Metered(r *obs.Registry) bool {
	_, ok := r.Value("events_total") // want `obs.Registry.Value is a registry lookup; hoist the metric into a struct field at setup`
	return ok
}

// events is a component's own counter field, registered once at setup
// through a read-back closure.
type events struct{ n uint64 }

// Hoisted increments that field: the blessed pattern, silent.
//
//alloyvet:hotpath
func Hoisted(e *events) {
	e.n++
}

// sampler is NOT an obs type: a method named Sample on it is ordinary
// cold code, so the implicit sample-path rule must not fire.
type sampler struct{ buf []uint64 }

func (s *sampler) Sample(v uint64) {
	s.buf = append(s.buf, v)
}

// Cold is not annotated: the same constructs are legal here.
func Cold(n int) string {
	_ = make([]byte, n)
	(&obs.Registry{}).RegisterCounterFunc("setup_total", "registration at setup is fine", nil)
	return fmt.Sprintf("n=%d", n)
}
