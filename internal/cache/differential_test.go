package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"alloysim/internal/memaddr"
	"alloysim/internal/policy"
)

// refWay is one way of the reference model.
type refWay struct {
	line         memaddr.Line
	valid, dirty bool
}

// refCache is the naive reference the packed bitmaps are checked against:
// one struct per way, found by linear scan, with its own instance of the
// real (stateful) replacement policy even for direct-mapped geometries.
type refCache struct {
	sets, assoc int
	ways        []refWay
	pol         policy.Policy
	stats       Stats
}

func newRefCache(t *testing.T, cfg Config) *refCache {
	t.Helper()
	pol, err := policy.NewSeeded(cfg.Policy, cfg.Sets, cfg.Assoc, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return &refCache{sets: cfg.Sets, assoc: cfg.Assoc, ways: make([]refWay, cfg.Sets*cfg.Assoc), pol: pol}
}

func (r *refCache) set(line memaddr.Line) []refWay {
	s := int(uint64(line) % uint64(r.sets))
	return r.ways[s*r.assoc : (s+1)*r.assoc]
}

func (r *refCache) find(line memaddr.Line) (int, int) {
	s := int(uint64(line) % uint64(r.sets))
	for w, way := range r.set(line) {
		if way.valid && way.line == line {
			return s, w
		}
	}
	return s, -1
}

func (r *refCache) lookup(line memaddr.Line, write bool) (int, bool) {
	s, w := r.find(line)
	if w >= 0 {
		r.stats.Hits++
		if write {
			r.stats.WriteHits++
			r.set(line)[w].dirty = true
		}
		r.pol.Touch(s, w)
		return s, true
	}
	r.stats.Misses++
	if write {
		r.stats.WriteMisses++
	}
	r.pol.Miss(s)
	return s, false
}

func (r *refCache) access(line memaddr.Line, write bool) (bool, Eviction) {
	s, hit := r.lookup(line, write)
	if hit {
		return true, Eviction{}
	}
	return false, r.fill(s, line, write)
}

func (r *refCache) fill(s int, line memaddr.Line, dirty bool) Eviction {
	row := r.set(line)
	way := -1
	for w := range row {
		if !row[w].valid {
			way = w
			break
		}
	}
	var ev Eviction
	if way < 0 {
		way = r.pol.Victim(s)
		ev = Eviction{Line: row[way].line, Dirty: row[way].dirty, Valid: true}
		r.stats.Evictions++
		if row[way].dirty {
			r.stats.Writebacks++
		}
	}
	row[way] = refWay{line: line, valid: true, dirty: dirty}
	r.pol.Insert(s, way)
	return ev
}

func (r *refCache) fillLine(line memaddr.Line, dirty bool) Eviction {
	s, w := r.find(line)
	if w >= 0 {
		if dirty {
			r.set(line)[w].dirty = true
		}
		return Eviction{}
	}
	return r.fill(s, line, dirty)
}

func (r *refCache) occupancy() int {
	n := 0
	for _, w := range r.ways {
		if w.valid {
			n++
		}
	}
	return n
}

// TestBitmapsMatchReference drives random Access/Probe/Fill
// sequences through the packed-bitmap cache and the naive reference, for
// associativities on every side of the window-width boundaries (1-way's
// 2-bit windows, 3 ways in 4 bits, 28/29 in 32, 32 and 64 filling a
// word) and for set counts that do and do not fill the last bitmap word.
// Hits, evictions, writebacks, statistics and occupancy
// must agree after every operation.
func TestBitmapsMatchReference(t *testing.T) {
	for _, assoc := range []int{1, 2, 3, 16, 28, 29, 32, 64} {
		pols := []string{"lru", "dip"}
		if assoc == 1 {
			pols = policy.Known() // every name maps to the stateless 1-way policy
		}
		for _, sets := range []int{8, 37} {
			for _, pol := range pols {
				cfg := Config{Sets: sets, Assoc: assoc, Policy: pol, Seed: 7}
				t.Run(fmt.Sprintf("%dx%d-%s", sets, assoc, pol), func(t *testing.T) {
					c := MustNew(cfg)
					if got := c.pol.Name(); got != pol {
						t.Fatalf("policy name %q, want %q", got, pol)
					}
					ref := newRefCache(t, cfg)
					rng := rand.New(rand.NewSource(int64(sets*100 + assoc)))
					span := 3 * sets * assoc
					for op := 0; op < 4000; op++ {
						line := memaddr.Line(rng.Intn(span))
						write := rng.Intn(3) == 0
						switch k := rng.Intn(10); {
						case k < 6:
							hit, ev := c.Access(line, write)
							wantHit, wantEv := ref.access(line, write)
							if hit != wantHit || ev != wantEv {
								t.Fatalf("op %d Access(%d,%v) = %v %+v, want %v %+v", op, line, write, hit, ev, wantHit, wantEv)
							}
						case k < 7:
							hit := c.Probe(line, write)
							if _, want := ref.lookup(line, write); hit != want {
								t.Fatalf("op %d Probe(%d,%v) = %v, want %v", op, line, write, hit, want)
							}
						default:
							ev, want := c.Fill(line, write), ref.fillLine(line, write)
							if ev != want {
								t.Fatalf("op %d Fill(%d,%v) = %+v, want %+v", op, line, write, ev, want)
							}
						}
						if got, want := c.Occupancy(), ref.occupancy(); got != want {
							t.Fatalf("op %d: occupancy %d, want %d", op, got, want)
						}
					}
					if c.Stats() != ref.stats {
						t.Fatalf("stats %+v, want %+v", c.Stats(), ref.stats)
					}
				})
			}
		}
	}
}
