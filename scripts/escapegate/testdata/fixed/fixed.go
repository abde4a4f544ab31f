// Package fixed is the repaired form of testdata/ifaceescape: the demand path
// writes into a scratch result held as a field, which already lives
// wherever the System does, so nothing moves to the heap.
package fixed

// Result is a demand-access outcome, filled in by the callee.
type Result struct {
	Hit   bool
	Ready uint64
}

// Org is a cache organization behind an interface.
type Org interface {
	AccessInto(line uint64, r *Result)
}

// System drives an Org on the demand path.
type System struct {
	org Org
	res Result // scratch result for AccessInto
}

// Read is the allocation-free demand path.
//
//alloyvet:hotpath
func (s *System) Read(line uint64) uint64 {
	res := &s.res
	s.org.AccessInto(line, res)
	if !res.Hit {
		return 0
	}
	return res.Ready
}
