//go:build invariants

package cache

// Tests that the occupancy-bitmask consistency invariants fire under
// -tags invariants.

import (
	"strings"
	"testing"

	"alloysim/internal/memaddr"
	"alloysim/internal/policy"
)

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want invariant violation containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v, want message containing %q", r, substr)
		}
	}()
	f()
}

// Both tests corrupt set 0 and then fill line 4, which maps to set 0 and
// takes its lowest free way (way 1), so the fill's set check runs over
// the corrupted bits.

func TestDirtyWithoutValidPanics(t *testing.T) {
	c := MustNew(Config{Sets: 4, Assoc: 4})
	c.Fill(memaddr.Line(0), false)
	// A dirty bit on an invalid way is a phantom writeback in waiting.
	c.dirty[0] |= 0b100
	mustPanic(t, "dirty bits", func() { c.Fill(memaddr.Line(4), false) })
}

func TestValidMaskOverflowPanics(t *testing.T) {
	c := MustNew(Config{Sets: 4, Assoc: 2})
	c.Fill(memaddr.Line(0), false)
	// Way 2 of a 2-way set: the mask claims a line beyond the geometry.
	c.valid[0] |= 0b100
	mustPanic(t, "exceeds 2 ways", func() { c.Fill(memaddr.Line(4), false) })
}

// rogueVictim is a replacement policy that returns an out-of-range way, the
// bug class the fill invariant exists to catch: the bad index would land in
// the neighboring set's tags, not in a bounds panic.
type rogueVictim struct{}

func (rogueVictim) Touch(set, way int)         {}
func (rogueVictim) Insert(set, way int)        {}
func (rogueVictim) Victim(set int) int         { return 99 }
func (rogueVictim) Miss(set int)               {}
func (rogueVictim) Name() string               { return "rogue" }
func (rogueVictim) CopyFrom(src policy.Policy) {}

func TestVictimOutOfRangePanics(t *testing.T) {
	c := MustNew(Config{Sets: 4, Assoc: 1})
	c.Fill(memaddr.Line(0), false) // set 0 is now full
	c.pol = rogueVictim{}
	mustPanic(t, "victim way 99", func() { c.Fill(memaddr.Line(4), false) })
}
