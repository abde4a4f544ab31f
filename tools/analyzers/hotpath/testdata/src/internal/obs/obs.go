// Package obs mirrors the real internal/obs just enough for the hotpath
// golden tests: the analyzer recognizes Registry lookups by the package
// name and the Registry type, not by import path.
package obs

type Registry struct{ byName map[string]int }

func (r *Registry) RegisterCounterFunc(name, help string, fn func() uint64) {}

func (r *Registry) Value(name string) (float64, bool) { return 0, false }

// TimeSeries and FlightRecorder mirror the real phase-telemetry sinks.
// Their Sample methods are implicitly hot — the analyzer checks them with
// no annotation — and these clean, preallocated-index-write bodies must
// stay silent, matching the real implementations.
type TimeSeries struct {
	rows   int
	cycles []uint64
	data   []uint64
}

func (t *TimeSeries) Sample(cycle uint64) {
	t.cycles[t.rows] = cycle
	t.data[t.rows] = cycle
	t.rows++
}

type FlightRecorder struct {
	head   int
	cycles []uint64
}

func (f *FlightRecorder) Sample(cycle uint64) {
	f.cycles[f.head] = cycle
	f.head++
	if f.head == len(f.cycles) {
		f.head = 0
	}
}
