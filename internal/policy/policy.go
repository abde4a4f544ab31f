// Package policy implements the cache replacement policies the paper's
// designs use: LRU, Random, BIP, and DIP (LRU/BIP set dueling, Qureshi et
// al., ISCA 2007), plus the RRIP family (SRRIP, BRRIP, and a SHiP-style
// signature predictor) used by the design-zoo organizations. The baseline
// L3 and the set-associative DRAM cache configurations use LRU-based DIP;
// the de-optimized LH-Cache variant in Table 1 uses Random; direct-mapped
// configurations need no policy at all.
package policy

import "fmt"

// Policy tracks replacement metadata for a cache of Sets x Assoc lines.
// Way indices are dense in [0, Assoc).
type Policy interface {
	// Touch records a hit on the given way.
	Touch(set, way int)
	// Insert records a fill into the given way.
	Insert(set, way int)
	// Victim returns the way to evict from a full set.
	Victim(set int) int
	// Miss informs the policy that an access to the set missed. DIP uses
	// this for set dueling; other policies ignore it.
	Miss(set int)
	// Name identifies the policy in reports.
	Name() string
	// CopyFrom overwrites the receiver's replacement state with src's,
	// so both go on to choose the same victims. src must be the same
	// policy type built for the same geometry; the copy allocates
	// nothing.
	CopyFrom(src Policy)
}

// NewSeeded constructs a policy by name: "lru", "random", "bip", "dip",
// "nru", "srrip", "brrip", or "ship". The seed drives the stochastic
// policies ("random"; the deterministic policies ignore it). Seed 0
// selects the legacy fixed seed, so existing configurations keep their
// eviction sequences; callers cross-producting designs and policies pass
// a per-(design, policy) seed to decorrelate runs.
func NewSeeded(name string, sets, assoc int, seed uint64) (Policy, error) {
	switch name {
	case "lru":
		return NewLRU(sets, assoc), nil
	case "srrip":
		return NewSRRIP(sets, assoc), nil
	case "brrip":
		return NewBRRIP(sets, assoc), nil
	case "ship":
		return NewSHiP(sets, assoc), nil
	case "random":
		if seed == 0 {
			seed = 1
		}
		return NewRandom(sets, assoc, seed), nil
	case "bip":
		return NewBIP(sets, assoc), nil
	case "dip":
		return NewDIP(sets, assoc), nil
	case "nru":
		return NewNRU(sets, assoc), nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q", name)
}

// Known lists every policy name New accepts, in a stable order.
func Known() []string {
	return []string{"lru", "random", "bip", "dip", "nru", "srrip", "brrip", "ship"}
}

// LRU is true least-recently-used replacement using per-line stamps.
type LRU struct {
	assoc  int
	clock  uint64
	stamps []uint64 // sets*assoc, 0 = never used
}

// NewLRU creates an LRU policy for sets x assoc lines.
func NewLRU(sets, assoc int) *LRU {
	return &LRU{assoc: assoc, stamps: make([]uint64, sets*assoc)}
}

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// Touch implements Policy.
func (p *LRU) Touch(set, way int) {
	p.clock++
	p.stamps[set*p.assoc+way] = p.clock
}

// Insert implements Policy. LRU inserts at MRU position.
func (p *LRU) Insert(set, way int) { p.Touch(set, way) }

// Miss implements Policy.
func (p *LRU) Miss(int) {}

// CopyFrom implements Policy.
func (p *LRU) CopyFrom(src Policy) {
	q := src.(*LRU)
	p.clock = q.clock
	copy(p.stamps, q.stamps)
}

// Victim implements Policy.
func (p *LRU) Victim(set int) int {
	base := set * p.assoc
	row := p.stamps[base : base+p.assoc]
	best, bestStamp := 0, row[0]
	for w, s := range row[1:] {
		if s < bestStamp {
			best, bestStamp = w+1, s
		}
	}
	return best
}

// insertAtLRU marks the way as least recently used (BIP's default insert).
func (p *LRU) insertAtLRU(set, way int) {
	base := set * p.assoc
	row := p.stamps[base : base+p.assoc]
	min := row[0]
	for _, s := range row[1:] {
		if s < min {
			min = s
		}
	}
	if min > 0 {
		min--
	}
	row[way] = min
}

// Random picks victims with a deterministic xorshift64* generator, so runs
// are reproducible. The Table 1 "LH-Cache + Rand Repl" variant uses this.
type Random struct {
	assoc int
	state uint64
}

// NewRandom creates a random-replacement policy with the given seed.
func NewRandom(sets, assoc int, seed uint64) *Random {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Random{assoc: assoc, state: seed}
}

// Name implements Policy.
func (p *Random) Name() string { return "random" }

// Touch implements Policy; random replacement keeps no recency state.
func (p *Random) Touch(int, int) {}

// Insert implements Policy.
func (p *Random) Insert(int, int) {}

// Miss implements Policy.
func (p *Random) Miss(int) {}

// CopyFrom implements Policy: the generator state is the whole state.
func (p *Random) CopyFrom(src Policy) { p.state = src.(*Random).state }

// Victim implements Policy.
func (p *Random) Victim(set int) int {
	p.state ^= p.state >> 12
	p.state ^= p.state << 25
	p.state ^= p.state >> 27
	return int((p.state * 0x2545f4914f6cdd1d) >> 33 % uint64(p.assoc))
}

// BIP is bimodal insertion: fills go to the LRU position except for 1 in
// Epsilon fills, which go to MRU. Hits promote to MRU as in LRU.
type BIP struct {
	lru     *LRU
	counter uint32
}

// Epsilon is BIP's bimodal throttle: 1 of every Epsilon fills inserts at MRU.
const Epsilon = 32

// NewBIP creates a BIP policy.
func NewBIP(sets, assoc int) *BIP {
	return &BIP{lru: NewLRU(sets, assoc)}
}

// Name implements Policy.
func (p *BIP) Name() string { return "bip" }

// Touch implements Policy.
func (p *BIP) Touch(set, way int) { p.lru.Touch(set, way) }

// Insert implements Policy.
func (p *BIP) Insert(set, way int) {
	p.counter++
	if p.counter%Epsilon == 0 {
		p.lru.Touch(set, way) // occasional MRU insert
		return
	}
	p.lru.insertAtLRU(set, way)
}

// Miss implements Policy.
func (p *BIP) Miss(int) {}

// Victim implements Policy.
func (p *BIP) Victim(set int) int { return p.lru.Victim(set) }

// CopyFrom implements Policy.
func (p *BIP) CopyFrom(src Policy) {
	q := src.(*BIP)
	p.lru.CopyFrom(q.lru)
	p.counter = q.counter
}

// DIP adaptively chooses between LRU and BIP insertion using set dueling:
// every dedicationStride-th set is dedicated to LRU, the next to BIP, and
// misses in dedicated sets steer a saturating PSEL counter that decides the
// policy for all follower sets.
type DIP struct {
	lru  *LRU
	bip  *BIP
	psel int32
	max  int32
	sets int
}

const dedicationStride = 32

// NewDIP creates a DIP policy with a 10-bit PSEL.
func NewDIP(sets, assoc int) *DIP {
	return &DIP{
		lru:  NewLRU(sets, assoc),
		bip:  NewBIP(sets, assoc),
		psel: 512, // neutral start; dueling moves it
		max:  1023,
		sets: sets,
	}
}

// Name implements Policy.
func (p *DIP) Name() string { return "dip" }

// setKind classifies a set: 0 = LRU-dedicated, 1 = BIP-dedicated, 2 = follower.
func (p *DIP) setKind(set int) int {
	switch set % dedicationStride {
	case 0:
		return 0
	case 1:
		return 1
	}
	return 2
}

// usesBIP reports whether fills into the set should use BIP insertion.
func (p *DIP) usesBIP(set int) bool {
	switch p.setKind(set) {
	case 0:
		return false
	case 1:
		return true
	}
	return p.psel > p.max/2
}

// Touch implements Policy. Both sub-policies share the LRU stamps, so we
// touch through the LRU core (BIP delegates there anyway).
func (p *DIP) Touch(set, way int) {
	p.lru.Touch(set, way)
	p.bip.lru.Touch(set, way)
}

// Insert implements Policy.
func (p *DIP) Insert(set, way int) {
	if p.usesBIP(set) {
		p.bip.Insert(set, way)
		p.lru.stamps[set*p.lru.assoc+way] = p.bip.lru.stamps[set*p.bip.lru.assoc+way]
		return
	}
	p.lru.Insert(set, way)
	p.bip.lru.stamps[set*p.bip.lru.assoc+way] = p.lru.stamps[set*p.lru.assoc+way]
}

// Miss implements Policy: misses in dedicated sets move PSEL toward the
// other policy.
func (p *DIP) Miss(set int) {
	switch p.setKind(set) {
	case 0: // LRU-dedicated set missed: vote for BIP
		if p.psel < p.max {
			p.psel++
		}
	case 1: // BIP-dedicated set missed: vote for LRU
		if p.psel > 0 {
			p.psel--
		}
	}
}

// Victim implements Policy.
func (p *DIP) Victim(set int) int { return p.lru.Victim(set) }

// CopyFrom implements Policy.
func (p *DIP) CopyFrom(src Policy) {
	q := src.(*DIP)
	p.lru.CopyFrom(q.lru)
	p.bip.CopyFrom(q.bip)
	p.psel = q.psel
}

// NRU is not-recently-used replacement with one reference bit per line.
// It is not used by any paper configuration but serves as a cheap
// comparison point in ablations and tests.
type NRU struct {
	assoc int
	ref   []bool
	hand  []int
}

// NewNRU creates an NRU policy.
func NewNRU(sets, assoc int) *NRU {
	return &NRU{assoc: assoc, ref: make([]bool, sets*assoc), hand: make([]int, sets)}
}

// Name implements Policy.
func (p *NRU) Name() string { return "nru" }

// Touch implements Policy.
func (p *NRU) Touch(set, way int) { p.ref[set*p.assoc+way] = true }

// Insert implements Policy.
func (p *NRU) Insert(set, way int) { p.ref[set*p.assoc+way] = true }

// Miss implements Policy.
func (p *NRU) Miss(int) {}

// CopyFrom implements Policy.
func (p *NRU) CopyFrom(src Policy) {
	q := src.(*NRU)
	copy(p.ref, q.ref)
	copy(p.hand, q.hand)
}

// Victim implements Policy: clock sweep for a clear reference bit.
func (p *NRU) Victim(set int) int {
	base := set * p.assoc
	for sweep := 0; sweep < 2*p.assoc; sweep++ {
		w := p.hand[set]
		p.hand[set] = (w + 1) % p.assoc
		if !p.ref[base+w] {
			return w
		}
		p.ref[base+w] = false
	}
	return 0
}
