package core

import "math/bits"

// MaxMasters is the largest number of contenders a lottery manager (and
// the bus fabric built on it) supports. Request sets are passed as
// Bitset request maps; systems of up to 64 masters collapse to the
// single-word Mask64 fast path, so raising this constant does not
// change the ≤64-master hot loop. Every layer that caps its master
// count (bus, hw, simcfg) derives its limit from this constant.
const MaxMasters = 256

// BitsetWords is the number of 64-bit words backing a Bitset.
const BitsetWords = (MaxMasters + 63) / 64

// The hand-unrolled Any/None/Count bodies assume exactly four words;
// this pair of zero-size arrays fails to compile if MaxMasters moves
// without them being revisited.
var (
	_ [BitsetWords - 4]struct{}
	_ [4 - BitsetWords]struct{}
)

// Bitset is a fixed-size request map over up to MaxMasters contenders:
// bit i set means master i has a pending request. It is a plain value
// type (no heap allocation, comparable with ==); word 0 holds masters
// 0..63, so ≤64-master systems round-trip through Mask64 losslessly.
type Bitset [BitsetWords]uint64

// Mask64Bitset returns the Bitset whose first word is mask — the view
// of a classic uint64 request map inside the wide fabric.
func Mask64Bitset(mask uint64) Bitset {
	var s Bitset
	s[0] = mask
	return s
}

// Set marks bit i. It panics when i is outside [0, MaxMasters).
func (s *Bitset) Set(i int) { s[i>>6] |= uint64(1) << uint(i&63) }

// Clear unmarks bit i. It panics when i is outside [0, MaxMasters).
func (s *Bitset) Clear(i int) { s[i>>6] &^= uint64(1) << uint(i&63) }

// Test reports whether bit i is set. It panics when i is outside
// [0, MaxMasters).
func (s Bitset) Test(i int) bool { return s[i>>6]>>uint(i&63)&1 == 1 }

// Any reports whether any bit is set.
func (s Bitset) Any() bool { return s[0]|s[1]|s[2]|s[3] != 0 }

// None reports whether no bit is set.
func (s Bitset) None() bool { return s[0]|s[1]|s[2]|s[3] == 0 }

// Mask64 returns word 0 — the request map of masters 0..63. For a
// system of at most 64 masters this is the whole set, and the lottery
// managers' DrawSet fast path reduces to the classic uint64 Draw.
func (s Bitset) Mask64() uint64 { return s[0] }

// Count returns the number of set bits.
func (s Bitset) Count() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) +
		bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

// LowestSet returns the index of the least significant set bit, or
// NoWinner when the set is empty.
func (s Bitset) LowestSet() int {
	for w, word := range s {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return NoWinner
}

// HighestSet returns the index of the most significant set bit, or
// NoWinner when the set is empty.
func (s Bitset) HighestSet() int {
	for w := len(s) - 1; w >= 0; w-- {
		if s[w] != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(s[w])
		}
	}
	return NoWinner
}

// within restricts s to the bits of all, in place, and reports whether
// any bit is left. The managers call it on every draw; it works on s
// word by word because a fresh Bitset built from 8-byte stores and then
// copied whole stalls on the store-to-load forward.
func (s *Bitset) within(all *Bitset) bool {
	s[0] &= all[0]
	s[1] &= all[1]
	s[2] &= all[2]
	s[3] &= all[3]
	return s[0]|s[1]|s[2]|s[3] != 0
}

// Trim clears every bit at index n and above, restricting the set to
// the first n contenders. n outside [0, MaxMasters] is clamped.
func (s *Bitset) Trim(n int) {
	if n < 0 {
		n = 0
	}
	if n >= MaxMasters {
		return
	}
	w := n >> 6
	s[w] &= FullMask(n & 63)
	for w++; w < BitsetWords; w++ {
		s[w] = 0
	}
}

// FullMask returns the uint64 request map with the low n bits set,
// saturating: n >= 64 yields all ones and n <= 0 yields zero. This is
// the safe spelling of the 1<<n-1 idiom, whose shift silently wraps at
// the word width — the exact boundary a 64-master system sits on.
func FullMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	if n <= 0 {
		return 0
	}
	return uint64(1)<<uint(n) - 1
}

// FullBitset returns the Bitset with the low n bits set, saturating at
// MaxMasters — the "every master pending" request map of a saturated
// n-master fabric, at any width.
func FullBitset(n int) Bitset {
	var s Bitset
	if n <= 0 {
		return s
	}
	if n > MaxMasters {
		n = MaxMasters
	}
	for w := 0; w < n>>6; w++ {
		s[w] = ^uint64(0)
	}
	if low := n & 63; low != 0 {
		s[n>>6] = FullMask(low)
	}
	return s
}
