package core

import (
	"context"
	"fmt"

	"alloysim/internal/cache"
	"alloysim/internal/memaddr"
)

// WarmKey is everything the design-independent half of a warm-up depends
// on: the trace generators and the shared L3. Two configs with equal keys
// send the DRAM-cache organization the same warm-up stream and leave the
// L3 in the same state, whatever their design, predictor, cache size,
// core model or write buffer. Zero-valued fields are spelled at the
// values NewSystem gives them, so equal warm-ups have equal keys.
type WarmKey struct {
	Workload   string
	Seed       uint64
	Scale      uint64
	Cores      int
	WarmupRefs uint64
	GapScale   uint32
	L3Bytes    uint64
	L3Assoc    int
	L3Policy   string
}

// WarmKey returns the config's warm key. ok is false when a warm tape
// cannot stand in for the config's warm-up: caller-provided Generators
// (a tape cannot regenerate them) or a private L2.
func (c Config) WarmKey() (k WarmKey, ok bool) {
	if c.Generators != nil || c.L2Bytes > 0 {
		return WarmKey{}, false
	}
	k = WarmKey{
		Workload: c.Workload, Seed: c.Seed, Scale: c.Scale, Cores: c.Cores,
		WarmupRefs: c.WarmupRefs, GapScale: max(c.GapScale, 1),
		L3Bytes: c.L3Bytes, L3Assoc: c.L3Assoc, L3Policy: c.L3Policy,
	}
	if k.L3Policy == "" {
		k.L3Policy = DefaultL3Policy
	}
	return k, true
}

// warmOp is what one L3 reference of the warm-up sends below the L3.
type warmOp uint8

const (
	// warmNone: the L3 absorbed the reference.
	warmNone warmOp = iota
	// warmAccess: the organization sees ref.Line (a read miss, or a
	// write that missed the L3 and is forwarded).
	warmAccess
	// warmVictimAccess: a read miss evicted a dirty line; the
	// organization sees the victim's writeback, then the read.
	warmVictimAccess
)

// WarmTape is the recorded design-independent half of one warm-up: for
// every reference that reached the L3, two bits saying what went below
// it, the dirty-victim lines in order, and the L3 as the warm-up left it.
// A System restored from a tape (RestoreWarm) regenerates its references
// from its own fresh generators, replays the tape's outcomes into its
// organization in place of the L3 lookups, and then copies the L3 state.
// A tape is immutable once recorded and may be shared by any number of
// concurrently running Systems.
type WarmTape struct {
	key     WarmKey
	ops     []byte // warmOps packed 4 to a byte, low bits first
	n       int    // recorded references
	victims []memaddr.Line
	l3      *cache.Cache
}

// record appends one reference's outcome. Only RecordWarm's System calls
// it.
func (t *WarmTape) record(op warmOp, victim memaddr.Line) {
	if t.n&3 == 0 {
		t.ops = append(t.ops, 0)
	}
	t.ops[t.n>>2] |= byte(op) << (uint(t.n&3) * 2)
	t.n++
	if op == warmVictimAccess {
		t.victims = append(t.victims, victim)
	}
}

// RecordWarm runs cfg's warm-up with no DRAM-cache organization and
// records it as a tape. Only the warm-key fields of cfg matter.
func RecordWarm(ctx context.Context, cfg Config) (*WarmTape, error) {
	key, ok := cfg.WarmKey()
	if !ok {
		return nil, fmt.Errorf("core: config for %q has no warm key (custom generators or a private L2)", cfg.Workload)
	}
	cfg.Design, cfg.Predictor, cfg.DCPolicy, cfg.TrackFootprint = DesignNone, PredDefault, "", false
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	// Every reference reaches the L3 (there is no private L2), so the
	// op array's final size is known.
	s.rec = &WarmTape{key: key, ops: make([]byte, 0, (cfg.WarmupRefs*uint64(cfg.Cores)+3)/4)}
	if err := s.warm(ctx); err != nil {
		return nil, err
	}
	s.rec.l3 = s.l3
	return s.rec, nil
}

// RestoreWarm makes the System take its warm-up from the tape instead of
// running the L3: its measured run is then identical to one that warmed
// live. Call it before Run. The tape must have been recorded under the
// System's warm key.
func (s *System) RestoreWarm(t *WarmTape) error {
	if s.ran {
		return fmt.Errorf("core: RestoreWarm on a System that already ran")
	}
	if key, ok := s.cfg.WarmKey(); !ok || key != t.key {
		return fmt.Errorf("core: warm tape for %+v does not match the config's warm-up", t.key)
	}
	s.tape = tapeReader{t: t}
	return nil
}

// tapeReader is one System's cursor over a shared tape.
type tapeReader struct {
	t *WarmTape
	i int // next reference
	v int // next victim
}

// next returns the next reference's recorded outcome.
//
//alloyvet:hotpath
func (r *tapeReader) next() (warmOp, memaddr.Line) {
	op := warmOp(r.t.ops[r.i>>2]>>(uint(r.i&3)*2)) & 3
	r.i++
	if op != warmVictimAccess {
		return op, 0
	}
	r.v++
	return op, r.t.victims[r.v-1]
}

// finish checks that the warm-up consumed the whole tape and copies the
// tape's L3 state into l3.
func (r *tapeReader) finish(l3 *cache.Cache) error {
	if r.i != r.t.n || r.v != len(r.t.victims) {
		return fmt.Errorf("core: warm tape holds %d references and %d victims, the warm-up consumed %d and %d",
			r.t.n, len(r.t.victims), r.i, r.v)
	}
	return l3.CopyFrom(r.t.l3)
}
