package core

import (
	"testing"
	"testing/quick"

	"lotterybus/internal/prng"
)

// TestStaticNeverGrantsNonRequester is the safety property of the
// comparator/priority-selector structure, checked across random ticket
// vectors, widths, masks and every slack policy.
func TestStaticNeverGrantsNonRequester(t *testing.T) {
	f := func(seed uint64, rawTickets [6]uint16, maskRaw uint8, policyRaw uint8) bool {
		tickets := make([]uint64, 0, 6)
		for _, r := range rawTickets {
			tickets = append(tickets, uint64(r%200)+1)
		}
		policy := SlackPolicy(policyRaw % 4)
		l, err := NewStaticLottery(StaticConfig{
			Tickets: tickets,
			Source:  prng.NewXorShift64Star(seed),
			Policy:  policy,
		})
		if err != nil {
			t.Log(err)
			return false
		}
		mask := uint64(maskRaw) & (1<<6 - 1)
		for k := 0; k < 32; k++ {
			w := l.Draw(mask)
			if mask == 0 {
				if w != NoWinner {
					t.Logf("empty mask granted %d", w)
					return false
				}
				continue
			}
			if w == NoWinner {
				if policy != PolicyRedraw {
					t.Logf("policy %v declined with pending requests", policy)
					return false
				}
				continue
			}
			if mask>>uint(w)&1 == 0 {
				t.Logf("policy %v mask %06b granted non-requester %d", policy, mask, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicNeverGrantsNonRequester mirrors the safety property for the
// dynamic manager with per-draw random ticket lines, including zero
// holdings.
func TestDynamicNeverGrantsNonRequester(t *testing.T) {
	f := func(seed uint64, maskRaw uint8, policyRaw uint8) bool {
		policy := SlackPolicy(policyRaw % 4)
		l, err := NewDynamicLottery(DynamicConfig{
			Masters: 5,
			Source:  prng.NewXorShift64Star(seed),
			Policy:  policy,
		})
		if err != nil {
			t.Log(err)
			return false
		}
		src := prng.NewXorShift64Star(seed ^ 0xABCD)
		tickets := make([]uint64, 5)
		mask := uint64(maskRaw) & (1<<5 - 1)
		for k := 0; k < 32; k++ {
			for i := range tickets {
				tickets[i] = prng.Uintn(src, 50) // zero allowed
			}
			w := l.Draw(mask, tickets)
			if mask == 0 {
				if w != NoWinner {
					return false
				}
				continue
			}
			if w == NoWinner {
				if policy != PolicyRedraw {
					return false
				}
				continue
			}
			if mask>>uint(w)&1 == 0 {
				t.Logf("policy %v tickets %v mask %05b granted %d", policy, tickets, mask, w)
				return false
			}
			// A zero-ticket requester may only win when every live
			// requester holds zero tickets — except under AbsorbLast,
			// whose slack zone goes to the highest-indexed requester
			// regardless of its holdings (that is what lifting the last
			// comparator threshold does in hardware).
			if tickets[w] == 0 && !(policy == PolicyAbsorbLast && w == Mask64Bitset(mask).HighestSet()) {
				for i := range tickets {
					if mask>>uint(i)&1 == 1 && tickets[i] > 0 {
						t.Logf("zero-ticket winner %d beat funded requester %d", w, i)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestStaticDynamicExactEquivalence: with PolicyExact and identical
// random streams, the static manager (precomputed LUT) and the dynamic
// manager (live adder tree) are the same function — draw for draw.
func TestStaticDynamicExactEquivalence(t *testing.T) {
	tickets := []uint64{3, 1, 4, 1, 5}
	st, err := NewStaticLottery(StaticConfig{
		Tickets: tickets,
		Source:  prng.NewXorShift64Star(2024),
	})
	if err != nil {
		t.Fatal(err)
	}
	dy, err := NewDynamicLottery(DynamicConfig{
		Masters: len(tickets),
		Source:  prng.NewXorShift64Star(2024),
	})
	if err != nil {
		t.Fatal(err)
	}
	maskSrc := prng.NewXorShift64Star(7)
	for k := 0; k < 5000; k++ {
		mask := prng.Uintn(maskSrc, 1<<5)
		ws, wd := st.Draw(mask), dy.Draw(mask, tickets)
		if ws != wd {
			t.Fatalf("draw %d mask %05b: static %d, dynamic %d", k, mask, ws, wd)
		}
	}
}

// TestStaticLivenessUnderRedraw: with at least one requester, a redraw
// policy eventually grants (no unbounded slack streaks) — the starvation
// bound in action at the draw level.
func TestStaticLivenessUnderRedraw(t *testing.T) {
	l, err := NewStaticLottery(StaticConfig{
		Tickets: []uint64{1, 1000},
		Source:  prng.NewXorShift64Star(55),
		Policy:  PolicyRedraw,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The 1-ticket master alone: its scaled holding is a sliver of the
	// RNG range, so most draws miss — but a grant must arrive within a
	// bounded horizon.
	streak, worst := 0, 0
	grants := 0
	for k := 0; k < 200000; k++ {
		if l.Draw(0b01) == 0 {
			grants++
			if streak > worst {
				worst = streak
			}
			streak = 0
		} else {
			streak++
		}
	}
	if grants == 0 {
		t.Fatal("redraw policy never granted the sole requester")
	}
	// Scaled share is ~1/2048 of the range; 40000 consecutive misses
	// has probability < 4e-9.
	if worst > 40000 {
		t.Fatalf("slack streak of %d draws", worst)
	}
}
