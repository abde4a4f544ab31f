package memaddr

import (
	"math/rand"
	"testing"
)

func TestLineSetBasics(t *testing.T) {
	s := NewLineSet()
	if s.Count() != 0 {
		t.Fatalf("empty set Count = %d", s.Count())
	}
	s.Add(5)
	s.Add(5)
	s.Add(6)
	s.Add(64) // next page
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	if s.used != 2 {
		t.Fatalf("pages used = %d, want 2", s.used)
	}
	for _, l := range []Line{5, 6, 64} {
		if !s.Contains(l) {
			t.Fatalf("Contains(%d) = false after Add", l)
		}
	}
	for _, l := range []Line{0, 7, 63, 65, 1 << 40} {
		if s.Contains(l) {
			t.Fatalf("Contains(%d) = true, never added", l)
		}
	}
}

// TestLineSetMatchesMap cross-checks against a reference map over a
// workload-shaped address stream (scattered pages, dense lines within).
func TestLineSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewLineSet()
	ref := make(map[Line]struct{})
	for i := 0; i < 200_000; i++ {
		page := Line(rng.Intn(5000))
		l := PageScatter(page<<PageShift | Line(rng.Intn(64)))
		s.Add(l)
		ref[l] = struct{}{}
	}
	if got, want := s.Count(), uint64(len(ref)); got != want {
		t.Fatalf("Count = %d, reference map has %d", got, want)
	}
	for l := range ref {
		if !s.Contains(l) {
			t.Fatalf("Contains(%d) = false for added line", l)
		}
	}
}

// TestLineSetGrowth pushes far past the initial table size to exercise
// rehashing.
func TestLineSetGrowth(t *testing.T) {
	s := NewLineSet()
	const pages = 100_000
	for p := 0; p < pages; p++ {
		s.Add(Line(p) << PageShift)
	}
	if s.Count() != pages {
		t.Fatalf("Count = %d, want %d", s.Count(), pages)
	}
	if s.used != pages {
		t.Fatalf("pages used = %d, want %d", s.used, pages)
	}
}

// BenchmarkLineSetAdd measures the steady-state Add path; after the table
// stops growing it must not allocate.
func BenchmarkLineSetAdd(b *testing.B) {
	s := NewLineSet()
	for p := 0; p < 1<<14; p++ {
		s.Add(Line(p) << PageShift)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(Line(i&(1<<14-1))<<PageShift | Line(i&63))
	}
}
