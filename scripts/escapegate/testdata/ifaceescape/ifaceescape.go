// Package ifaceescape reproduces the allocation regression the escape gate exists
// to catch: a hot function passes the address of a local result to an
// interface method. The compiler cannot see the callee, so the local is
// moved to the heap on every call, although the syntax shows no
// allocation at all.
package ifaceescape

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
}

// Read is the regressed demand path.
//
//alloyvet:hotpath
func (s *System) Read(line uint64) uint64 {
	var res Result // want "moved to heap: res"
	s.org.AccessInto(line, &res)
	if !res.Hit {
		return 0
	}
	return res.Ready
}

// ColdRead has the same escape outside any hot function, where it is
// allowed.
func (s *System) ColdRead(line uint64) bool {
	var res Result
	s.org.AccessInto(line, &res)
	return res.Hit
}
