package core

import (
	"fmt"
	"testing"

	"lotterybus/internal/prng"
)

// refPartialSums is the comparator bank the managers evaluated before
// the set-bit walk: every master's running partial sum over the request
// set, live total last.
func refPartialSums(holdings []uint64, set Bitset) ([]uint64, uint64) {
	ps := make([]uint64, len(holdings))
	var acc uint64
	for i, t := range holdings {
		if set.Test(i) {
			acc += t
		}
		ps[i] = acc
	}
	return ps, acc
}

// refStaticDraw is StaticLottery.DrawSet on full partial sums, drawing
// from src.
func refStaticDraw(l *StaticLottery, src prng.Source, set Bitset) int {
	set.Trim(l.n)
	if set.None() {
		return NoWinner
	}
	holdings := l.orig
	if l.policy == PolicyRedraw || l.policy == PolicyAbsorbLast {
		holdings = l.scaled
	}
	ps, total := refPartialSums(holdings, set)
	var r uint64
	switch l.policy {
	case PolicyModulo:
		if total >= 1<<24 {
			r = prng.Uintn(src, total)
		} else {
			r = (src.Uint64() & (1<<32 - 1)) % total
		}
	case PolicyRedraw, PolicyAbsorbLast:
		r = src.Uint64() & (uint64(1)<<l.width - 1)
		if r >= total && l.policy == PolicyRedraw {
			return NoWinner
		}
		if r >= total {
			return set.HighestSet()
		}
	default:
		r = prng.Uintn(src, total)
	}
	return selectWinner(ps, r)
}

// refDynamicDraw is DynamicLottery.DrawSet on full partial sums,
// drawing from src.
func refDynamicDraw(l *DynamicLottery, src prng.Source, set Bitset, tickets []uint64) int {
	set.Trim(l.n)
	if set.None() {
		return NoWinner
	}
	ps, total := refPartialSums(tickets, set)
	if total == 0 {
		return set.LowestSet()
	}
	word := func() uint64 { return src.Uint64() & (uint64(1)<<l.width - 1) }
	var r uint64
	switch {
	case l.policy == PolicyExact || total >= uint64(1)<<l.width:
		r = prng.Uintn(src, total)
	case l.policy == PolicyRedraw:
		if r = word(); r >= total {
			return NoWinner
		}
	case l.policy == PolicyAbsorbLast:
		if r = word(); r >= total {
			return set.HighestSet()
		}
	default:
		r = word() % total
	}
	return selectWinner(ps, r)
}

// drawSets returns request sets over n masters: every single requester,
// sparse sets of 1-4 live requesters, dense random sets and the full set.
func drawSets(n int, seed uint64) []Bitset {
	src := prng.NewXorShift64Star(seed)
	var sets []Bitset
	for i := 0; i < n; i++ {
		var s Bitset
		s.Set(i)
		sets = append(sets, s)
	}
	for k := 0; k < 600; k++ {
		var s Bitset
		for j := prng.IntRange(src, 1, 4); j > 0; j-- {
			s.Set(prng.IntRange(src, 0, n-1))
		}
		sets = append(sets, s)
	}
	for k := 0; k < 600; k++ {
		s := Bitset{src.Uint64(), src.Uint64(), src.Uint64(), src.Uint64()}
		s.Trim(n)
		sets = append(sets, s)
	}
	return append(sets, FullBitset(n), Bitset{})
}

var allPolicies = []SlackPolicy{PolicyExact, PolicyModulo, PolicyRedraw, PolicyAbsorbLast}

// TestSetBitDrawMatchesPartialSums proves the set-bit walk grants the
// winner the full partial-sum scan would, drawing the same random words,
// for every slack policy on managers beyond the lookup table.
func TestSetBitDrawMatchesPartialSums(t *testing.T) {
	for _, policy := range allPolicies {
		for _, n := range []int{13, 16, 64, 65, 96} {
			t.Run(fmt.Sprintf("%v/n=%d", policy, n), func(t *testing.T) {
				tickets := make([]uint64, n)
				dyn := make([]uint64, n)
				for i := range tickets {
					tickets[i] = uint64(i%7 + 1)
					dyn[i] = uint64(i % 5) // zero holdings included
				}
				l, err := NewStaticLottery(StaticConfig{Tickets: tickets, Source: prng.NewXorShift64Star(3), Policy: policy})
				if err != nil {
					t.Fatal(err)
				}
				refSrc := prng.NewXorShift64Star(3)
				// A 6-bit word cannot hold most live totals here, so the
				// dynamic manager's exact fallback is exercised too.
				var dls []*DynamicLottery
				var dsrcs []prng.Source
				for i, width := range []uint{0, 6} {
					d, err := NewDynamicLottery(DynamicConfig{Masters: n, Source: prng.NewXorShift64Star(uint64(5 + i)), Policy: policy, Width: width})
					if err != nil {
						t.Fatal(err)
					}
					dls, dsrcs = append(dls, d), append(dsrcs, prng.NewXorShift64Star(uint64(5+i)))
				}
				for k, set := range drawSets(n, uint64(n)) {
					if got, want := l.DrawSet(set), refStaticDraw(l, refSrc, set); got != want {
						t.Fatalf("static set %d %x: winner %d, reference %d", k, set, got, want)
					}
					for i, d := range dls {
						if got, want := d.DrawSet(set, dyn), refDynamicDraw(d, dsrcs[i], set, dyn); got != want {
							t.Fatalf("dynamic width %d set %d %x: winner %d, reference %d", d.Width(), k, set, got, want)
						}
					}
				}
				if l.src.Uint64() != refSrc.Uint64() {
					t.Fatal("static manager drew a different number of random words")
				}
				for i, d := range dls {
					if d.src.Uint64() != dsrcs[i].Uint64() {
						t.Fatalf("dynamic width %d drew a different number of random words", d.Width())
					}
				}
			})
		}
	}
}

// TestSetBitDrawMatchesLUT proves that, up to lutMaxMasters, the set-bit
// walk and the lookup table grant the same winner on every request mask
// and consume the same random words.
func TestSetBitDrawMatchesLUT(t *testing.T) {
	for _, policy := range allPolicies {
		for _, n := range []int{1, 4, 7, 12} {
			tickets := make([]uint64, n)
			for i := range tickets {
				tickets[i] = uint64(i%5 + 1)
			}
			lut := newStatic(t, tickets, policy, 9)
			walk := newStatic(t, tickets, policy, 9)
			if lut.origLUT.psums == nil {
				t.Fatalf("n=%d: no lookup table", n)
			}
			walk.origLUT.totals, walk.origLUT.psums = nil, nil
			walk.scaledLUT.totals, walk.scaledLUT.psums = nil, nil
			for round := 0; round < 3; round++ {
				for mask := uint64(0); mask < 1<<n; mask++ {
					if a, b := lut.Draw(mask), walk.Draw(mask); a != b {
						t.Fatalf("%v n=%d mask %b: LUT %d, walk %d", policy, n, mask, a, b)
					}
				}
			}
			if lut.src.Uint64() != walk.src.Uint64() || lut.Redraws() != walk.Redraws() {
				t.Fatalf("%v n=%d: LUT and walk consumed different random words", policy, n)
			}
		}
	}
}
