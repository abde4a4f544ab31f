// Package memaddr provides the address arithmetic shared by the cache and
// DRAM models: line addresses, set indexing (including the Alloy
// Cache's non-power-of-two residue indexing from §4.1 of the paper), and the
// folded-XOR hash used by the MAP-I predictor.
package memaddr

// LineSizeBytes is the cache line size used throughout the paper (64 B).
const LineSizeBytes = 64

// Line is a physical line address (byte address / LineSizeBytes).
type Line uint64

// Mod computes l mod n for a non-power-of-two divisor. The hardware
// implementation the paper sketches (residue arithmetic, 28 = 32-4) is
// modeled functionally: the result is what matters to the simulation.
func (l Line) Mod(n uint64) uint64 { return uint64(l) % n }

// FoldXOR folds a 64-bit value down to `bits` bits by repeatedly XORing
// high halves onto low halves. This is the classic folded-XOR index hash
// (Seznec & Michaud) that MAP-I uses to index the MACT.
func FoldXOR(v uint64, bits uint) uint64 {
	if bits == 0 {
		return 0
	}
	if bits >= 64 {
		return v
	}
	width := uint(64)
	for width > bits {
		half := (width + 1) / 2
		v = (v & ((1 << half) - 1)) ^ (v >> half)
		width = half
	}
	return v & ((1 << bits) - 1)
}

// PageShift is log2 of the lines per 4 KB page (64 lines).
const PageShift = 6

// PageScatter applies a deterministic, bijective virtual-to-physical page
// mapping: 4 KB pages are scattered across the physical address space by
// an odd-multiplier permutation while line offsets within a page are
// preserved. This models the OS page allocator the paper assumes
// ("virtual-to-physical mapping"): hot pages land in effectively random
// cache sets instead of structurally aliasing across rate-mode copies,
// and spatial locality survives within pages exactly as on real systems.
func PageScatter(l Line) Line {
	const mult = 0x9E3779B97F4A7C15 // odd → bijective modulo 2^57
	vpage := uint64(l) >> PageShift
	ppage := (vpage * mult) & (1<<57 - 1)
	return Line(ppage<<PageShift | uint64(l)&(1<<PageShift-1))
}
