// Package cache implements a generic set-associative cache model with
// pluggable replacement. It tracks contents only (tags, valid and dirty
// bits) — timing lives in the levels that own the cache: the L3 front-end
// and the DRAM-cache organizations layer latency over this structure.
//
// Set counts need not be powers of two: the Alloy Cache's 28-line rows
// produce a non-power-of-two set count, indexed by residue (paper §4.1).
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"alloysim/internal/invariants"
	"alloysim/internal/memaddr"
	"alloysim/internal/policy"
)

// Config describes a cache's geometry and replacement policy.
type Config struct {
	Sets   int    // number of sets (any positive integer)
	Assoc  int    // ways per set
	Policy string // a policy.Known name: "lru", "random", "srrip", ...
	Seed   uint64 // stochastic-policy seed; 0 keeps the legacy fixed seed
}

// Lines returns the total line capacity.
func (c Config) Lines() int { return c.Sets * c.Assoc }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sets <= 0 {
		return fmt.Errorf("cache: Sets must be positive, got %d", c.Sets)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: Assoc must be positive, got %d", c.Assoc)
	}
	if c.Assoc > 64 {
		return fmt.Errorf("cache: Assoc %d exceeds the 64-way bitmask limit", c.Assoc)
	}
	return nil
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	Line  memaddr.Line
	Dirty bool
	Valid bool // false when the fill used an invalid way (no eviction)
}

// Stats counts cache events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Writebacks  uint64 // dirty evictions
	Evictions   uint64 // all valid evictions
	WriteHits   uint64
	WriteMisses uint64
}

// Accesses returns total demand accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns hits / accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Hits) / float64(a)
	}
	return 0
}

// Cache is a set-associative cache. It is not safe for concurrent use; the
// simulator is single-threaded and deterministic by design.
//
// Contents are stored struct-of-arrays: a flat tag array plus flat valid
// and dirty bitmaps (hence the 64-way limit). Each set owns a
// power-of-two window of 1<<logW bits, so a window never straddles a
// word: 2 bits for a direct-mapped set, 32 for 16 or 29 ways, 64 for 32
// and up. Below 64 ways the window is strictly wider than the ways, so a
// stray bit past the last way stays inside its own set, where checkSet
// reports it. The lookup loop walks only the valid ways through the tag
// array — half the memory traffic of an array-of-structs layout — and a
// free way is found in O(1) by counting trailing zeros of the inverted
// valid mask.
type Cache struct {
	cfg     Config
	lines   []memaddr.Line // sets*assoc tags
	valid   []uint64       // per-set way bitmaps, 1<<logW bits per set
	dirty   []uint64       // same layout as valid
	logW    uint           // log2 of a set's bitmap window width
	full    uint64         // assoc ones: the value of a full set's valid mask
	setMask uint64         // Sets-1 when Sets is a power of two, else 0
	pol     policy.Policy
	stats   Stats
}

// New creates a cache from the config. An empty Policy defaults to "lru".
// A direct-mapped cache gets a stateless policy under the configured
// name: a 1-way set's victim is always way 0, so any recency state would
// be dead weight.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	name := cfg.Policy
	if name == "" {
		name = "lru"
	}
	var pol policy.Policy
	if cfg.Assoc == 1 {
		if !slices.Contains(policy.Known(), name) {
			return nil, fmt.Errorf("policy: unknown policy %q", name)
		}
		pol = directMapped(name)
	} else {
		var err error
		if pol, err = policy.NewSeeded(name, cfg.Sets, cfg.Assoc, cfg.Seed); err != nil {
			return nil, err
		}
	}
	full := ^uint64(0)
	if cfg.Assoc < 64 {
		full = 1<<uint(cfg.Assoc) - 1
	}
	logW := uint(min(bits.Len(uint(cfg.Assoc)), 6))
	words := (cfg.Sets<<logW + 63) >> 6
	var setMask uint64
	if s := uint64(cfg.Sets); s&(s-1) == 0 {
		setMask = s - 1
	}
	return &Cache{
		cfg:     cfg,
		lines:   make([]memaddr.Line, cfg.Sets*cfg.Assoc),
		valid:   make([]uint64, words),
		dirty:   make([]uint64, words),
		logW:    logW,
		full:    full,
		setMask: setMask,
		pol:     pol,
	}, nil
}

// directMapped is the replacement policy of a 1-way cache: there is only
// one way to evict, and no state to keep. It reports the configured name.
type directMapped string

func (directMapped) Touch(int, int)         {}
func (directMapped) Insert(int, int)        {}
func (directMapped) Victim(int) int         { return 0 }
func (directMapped) Miss(int)               {}
func (p directMapped) Name() string         { return string(p) }
func (directMapped) CopyFrom(policy.Policy) {}

// MustNew is New but panics on error; for tests and fixed configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// CopyFrom overwrites c's contents, replacement state and statistics
// with src's, so c behaves from here on exactly as src would. The caches
// must share a configuration. Only c is written: concurrent CopyFrom
// calls may share one src. The copy allocates nothing.
func (c *Cache) CopyFrom(src *Cache) error {
	if c.cfg != src.cfg {
		return fmt.Errorf("cache: CopyFrom between configurations %+v and %+v", src.cfg, c.cfg)
	}
	copy(c.lines, src.lines)
	copy(c.valid, src.valid)
	copy(c.dirty, src.dirty)
	c.pol.CopyFrom(src.pol)
	c.stats = src.stats
	return nil
}

// Stats returns a copy of the event counts.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters, keeping contents and replacement
// state; used to separate warmup from measurement.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// SetOf returns the set index for a line. Power-of-two set counts take a
// mask instead of the hardware divide; the Alloy Cache's 28-line rows fall
// back to the general residue.
//
//alloyvet:hotpath
func (c *Cache) SetOf(line memaddr.Line) int {
	if c.setMask != 0 {
		return int(uint64(line) & c.setMask)
	}
	return int(line.Mod(uint64(c.cfg.Sets)))
}

// at returns the index of the bitmap word holding set's window and the
// window's bit offset within that word.
//
//alloyvet:hotpath
func (c *Cache) at(set int) (word int, off uint) {
	b := uint(set) << c.logW
	return int(b >> 6), b & 63
}

// setDirty marks way w of set dirty.
//
//alloyvet:hotpath
func (c *Cache) setDirty(set, w int) {
	word, off := c.at(set)
	c.dirty[word] |= 1 << (off + uint(w))
}

// findWay returns the way holding line in set, or -1.
//
//alloyvet:hotpath
func (c *Cache) findWay(set int, line memaddr.Line) int {
	base := set * c.cfg.Assoc
	word, off := c.at(set)
	for m := c.valid[word] >> off & c.full; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.lines[base+w] == line {
			return w
		}
	}
	return -1
}

// Contains reports whether the line is present, without disturbing
// replacement state or statistics. The idealized MissMap and the Perfect
// predictor are built on this probe.
func (c *Cache) Contains(line memaddr.Line) bool {
	return c.findWay(c.SetOf(line), line) >= 0
}

// Access performs a demand access with allocate-on-miss semantics: on a
// miss the line is filled immediately (contents-wise) and the displaced
// line, if any, is returned. Timing layers sequence the actual fill and
// writeback traffic around this bookkeeping.
//
//alloyvet:hotpath
func (c *Cache) Access(line memaddr.Line, write bool) (hit bool, ev Eviction) {
	set := c.SetOf(line)
	if w := c.findWay(set, line); w >= 0 {
		c.stats.Hits++
		if write {
			c.stats.WriteHits++
			c.setDirty(set, w)
		}
		c.pol.Touch(set, w)
		return true, Eviction{}
	}
	c.stats.Misses++
	if write {
		c.stats.WriteMisses++
	}
	c.pol.Miss(set)
	ev = c.fill(set, line, write)
	return false, ev
}

// Probe performs a non-allocating lookup, updating hit/miss statistics and
// recency on hit but never filling. Useful for modeling tag checks whose
// fills are decided elsewhere.
//
//alloyvet:hotpath
func (c *Cache) Probe(line memaddr.Line, write bool) bool {
	set := c.SetOf(line)
	if w := c.findWay(set, line); w >= 0 {
		c.stats.Hits++
		if write {
			c.stats.WriteHits++
			c.setDirty(set, w)
		}
		c.pol.Touch(set, w)
		return true
	}
	c.stats.Misses++
	if write {
		c.stats.WriteMisses++
	}
	c.pol.Miss(set)
	return false
}

// Fill inserts a line (e.g. after a memory response) and returns the
// eviction it caused. Filling a line already present is a no-op.
func (c *Cache) Fill(line memaddr.Line, dirty bool) Eviction {
	set := c.SetOf(line)
	if w := c.findWay(set, line); w >= 0 {
		if dirty {
			c.setDirty(set, w)
		}
		return Eviction{}
	}
	return c.fill(set, line, dirty)
}

//alloyvet:hotpath
func (c *Cache) fill(set int, line memaddr.Line, dirty bool) Eviction {
	base := set * c.cfg.Assoc
	word, off := c.at(set)
	var ev Eviction
	var way int
	if free := ^(c.valid[word] >> off) & c.full; free != 0 {
		// Lowest invalid way first, matching the policy's insertion model.
		way = bits.TrailingZeros64(free)
	} else {
		way = c.pol.Victim(set)
		if invariants.Enabled && (way < 0 || way >= c.cfg.Assoc) {
			// An out-of-range victim indexes into the neighboring set's
			// tags — silent cross-set corruption, not a bounds panic.
			invariants.Failf("cache: policy victim way %d outside [0,%d) for set %d", way, c.cfg.Assoc, set)
		}
		wasDirty := c.dirty[word]&(1<<(off+uint(way))) != 0
		ev = Eviction{Line: c.lines[base+way], Dirty: wasDirty, Valid: true}
		c.stats.Evictions++
		if wasDirty {
			c.stats.Writebacks++
		}
	}
	bit := uint64(1) << (off + uint(way))
	c.lines[base+way] = line
	c.valid[word] |= bit
	if dirty {
		c.dirty[word] |= bit
	} else {
		c.dirty[word] &^= bit
	}
	c.pol.Insert(set, way)
	if invariants.Enabled {
		c.checkSet(set)
	}
	return ev
}

// checkSet asserts the set's occupancy bitmasks are consistent: a dirty
// bit implies a valid bit, and no bit exceeds the associativity. Only
// meaningful under -tags invariants; a dirty-without-valid bit turns into
// a phantom writeback the next time the way is reused.
func (c *Cache) checkSet(set int) {
	window := ^uint64(0)
	if c.logW < 6 {
		window = 1<<(1<<c.logW) - 1
	}
	word, off := c.at(set)
	valid := c.valid[word] >> off & window
	dirty := c.dirty[word] >> off & window
	if orphan := dirty &^ valid; orphan != 0 {
		invariants.Failf("cache: set %d has dirty bits %#x without valid bits (valid %#x)", set, orphan, valid)
	}
	if over := valid &^ c.full; over != 0 {
		invariants.Failf("cache: set %d valid mask %#x exceeds %d ways", set, valid, c.cfg.Assoc)
	}
}

// Occupancy returns the number of valid lines; useful for warmup checks.
func (c *Cache) Occupancy() int {
	n := 0
	for _, m := range c.valid {
		n += bits.OnesCount64(m)
	}
	return n
}
