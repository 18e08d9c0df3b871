// Package core implements the LOTTERYBUS arbitration algorithm — the
// central contribution of Lahiri, Raghunathan and Lakshminarayana,
// "LOTTERYBUS: A New High-Performance Communication Architecture for
// System-on-Chip Designs", DAC 2001.
//
// A lottery manager holds, for each bus master C_1..C_n, a number of
// lottery tickets t_1..t_n. Given the set of currently pending requests
// r_1..r_n (boolean), an arbitration draws a uniformly random "winning
// ticket" in [0, Σ r_j·t_j) and grants the bus to the master whose ticket
// range contains it: the probability of granting C_i is
//
//	P(C_i) = r_i·t_i / Σ_j r_j·t_j .
//
// Two managers are provided, mirroring the paper's two architectures:
//
//   - StaticLottery (§4.3): ticket holdings are fixed at construction.
//     All 2^n partial-sum ranges are precomputed into a lookup table (up
//     to 12 masters; beyond that the live requesters are walked) and
//     the ticket holdings are scaled so the grand total is a power of
//     two, enabling an LFSR-based random number generator.
//
//   - DynamicLottery (§4.4): ticket holdings are inputs to every draw.
//     Partial sums are formed on the fly (bitwise-AND plus adder tree in
//     hardware) and the random number is reduced into the live range
//     with modulo arithmetic.
//
// The package is independent of the bus model: it can arbitrate anything
// (package arb adapts it to the bus simulator, and it is equally usable
// as a proportional-share scheduler in the style of Waldspurger-Weihl
// lottery scheduling, the paper's reference [16]).
package core

import (
	"fmt"
	"math"
	"math/bits"

	"lotterybus/internal/prng"
)

// lutMaxMasters bounds the request-map lookup table (2^n entries of n
// partial sums each). Beyond it the managers walk the request map's set
// bits instead, which is behaviourally identical.
const lutMaxMasters = 12

// SlackPolicy selects how a lottery manager maps a raw random word onto
// the live ticket range [0, Σ r_j·t_j), whose size varies with the
// requesting subset and is generally not a power of two.
type SlackPolicy int

const (
	// PolicyExact draws an exactly uniform value in [0, total) using
	// unbiased rejection sampling on the random source, over the
	// original (unscaled) ticket holdings. This is the behavioural
	// reference (default): grant probabilities equal the configured
	// ticket ratios exactly, with no power-of-two scaling distortion.
	PolicyExact SlackPolicy = iota

	// PolicyModulo reduces a 32-bit random word modulo the live total of
	// the original (unscaled) holdings, exactly as the dynamic lottery
	// manager's modulo hardware does (paper Fig. 10). It carries the
	// usual modulo bias of at most total/2^32; totals at or above 2^24
	// fall back to exact sampling so the bias can never exceed 2^-8.
	PolicyModulo

	// PolicyRedraw compares the raw word against the partial sums and
	// issues no grant when the word falls above the live total; the
	// manager retries on the next arbitration. This matches a static
	// manager built from only a LUT, comparators and a priority selector
	// (paper Fig. 9) with no modulo stage. Proportionality among
	// requesters is exact; the cost is an occasional idle cycle.
	PolicyRedraw

	// PolicyAbsorbLast assigns the slack above the live total to the
	// highest-indexed requester (its comparator threshold is lifted to
	// the full RNG range). No cycles are lost but the last requester is
	// favoured by up to slack/2^width.
	PolicyAbsorbLast
)

// String returns the policy name.
func (p SlackPolicy) String() string {
	switch p {
	case PolicyExact:
		return "exact"
	case PolicyModulo:
		return "modulo"
	case PolicyRedraw:
		return "redraw"
	case PolicyAbsorbLast:
		return "absorb-last"
	default:
		return fmt.Sprintf("SlackPolicy(%d)", int(p))
	}
}

// NoWinner is returned by Draw when no grant is issued: either no
// requests are pending, or a PolicyRedraw draw fell into the slack zone.
const NoWinner = -1

// StaticLottery is the statically-configured lottery manager. Ticket
// holdings are fixed; the ranges of every request subset are precomputed.
type StaticLottery struct {
	orig   []uint64 // holdings as configured
	scaled []uint64 // holdings scaled so the grand total is 1<<width
	width  uint     // RNG word width; 1<<width == Σ scaled
	policy SlackPolicy
	src    prng.Source

	n   int
	all Bitset // the request map with every master pending
	// Two lookup tables are kept: the scaled table mirrors the hardware
	// LUT (paper Fig. 9) and serves the hardware-style policies; the
	// original-holdings table serves PolicyExact, which by definition is
	// free of scaling distortion.
	scaledLUT rangeLUT
	origLUT   rangeLUT

	draws   uint64
	redraws uint64
}

// rangeLUT caches, per request mask, the running partial sums
// Σ_{j<=i} r_j·t_j and the live total — the hardware lookup table of
// paper Fig. 9. Beyond lutMaxMasters only the holdings are kept and the
// live requesters are walked instead.
type rangeLUT struct {
	holdings []uint64
	totals   []uint64   // nil beyond lutMaxMasters
	psums    [][]uint64 // nil beyond lutMaxMasters
}

func newRangeLUT(holdings []uint64) rangeLUT {
	n := len(holdings)
	l := rangeLUT{holdings: holdings}
	if n > lutMaxMasters {
		return l
	}
	size := 1 << n
	l.totals = make([]uint64, size)
	l.psums = make([][]uint64, size)
	flat := make([]uint64, size*n)
	for mask := 0; mask < size; mask++ {
		ps := flat[mask*n : (mask+1)*n]
		var acc uint64
		for i := 0; i < n; i++ {
			if mask>>uint(i)&1 == 1 {
				acc += holdings[i]
			}
			ps[i] = acc
		}
		l.totals[mask] = acc
		l.psums[mask] = ps
	}
	return l
}

// total returns the live total of set, which holds no bit at or beyond
// the manager's master count.
func (l *rangeLUT) total(set *Bitset) uint64 {
	if l.totals != nil {
		return l.totals[set[0]]
	}
	return liveTotal(l.holdings, set)
}

// liveTotal is the AND stage plus adder tree over the live requesters
// only: Σ t_i over the set bits i of set, walking the words that can
// hold a master of t.
func liveTotal(t []uint64, set *Bitset) uint64 {
	var acc uint64
	for w, word := range set[:(len(t)+63)>>6] {
		if word == ^uint64(0) { // a saturated word: a plain sum is faster
			for _, x := range t[w<<6 : w<<6+64] {
				acc += x
			}
			continue
		}
		for ; word != 0; word &= word - 1 {
			acc += t[w<<6|bits.TrailingZeros64(word)]
		}
	}
	return acc
}

// crossing is selectWinner over the set bits of set alone: it returns
// the first requester whose running partial sum exceeds r. A
// non-requester's range is empty, so skipping it cannot move the first
// crossing and the winner matches the full comparator bank's.
func crossing(t []uint64, set *Bitset, r uint64) int {
	var acc uint64
	for w, word := range set[:(len(t)+63)>>6] {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if acc += t[i]; r < acc {
				return i
			}
		}
	}
	return NoWinner
}

// StaticConfig parameterizes NewStaticLottery.
type StaticConfig struct {
	// Tickets holds one positive ticket count per master.
	Tickets []uint64
	// Source supplies random words. Required.
	Source prng.Source
	// Policy selects the slack policy; default PolicyExact.
	Policy SlackPolicy
	// Width, if nonzero, fixes the RNG width (ticket holdings are scaled
	// so they sum to exactly 1<<Width). If zero, the smallest width with
	// 1<<width >= ceil(1.5 * total) is used, bounding the per-master
	// rounding distortion while keeping the redraw slack small.
	Width uint
}

// NewStaticLottery builds a static lottery manager.
func NewStaticLottery(cfg StaticConfig) (*StaticLottery, error) {
	n := len(cfg.Tickets)
	if n == 0 {
		return nil, fmt.Errorf("core: no masters")
	}
	if n > MaxMasters {
		return nil, fmt.Errorf("core: %d masters exceeds core.MaxMasters (%d)", n, MaxMasters)
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("core: nil random source")
	}
	var total uint64
	for i, t := range cfg.Tickets {
		if t == 0 {
			return nil, fmt.Errorf("core: master %d has zero tickets", i)
		}
		total += t
	}
	width := cfg.Width
	if width == 0 {
		width = AutoWidth(total)
	}
	if width > 32 {
		return nil, fmt.Errorf("core: RNG width %d exceeds 32", width)
	}
	scaled, err := ScaleTickets(cfg.Tickets, width)
	if err != nil {
		return nil, err
	}
	orig := append([]uint64(nil), cfg.Tickets...)
	l := &StaticLottery{
		orig:      orig,
		scaled:    scaled,
		width:     width,
		policy:    cfg.Policy,
		src:       cfg.Source,
		n:         n,
		all:       FullBitset(n),
		scaledLUT: newRangeLUT(scaled),
		origLUT:   newRangeLUT(orig),
	}
	return l, nil
}

// N returns the number of masters.
func (l *StaticLottery) N() int { return l.n }

// Width returns the RNG word width in bits.
func (l *StaticLottery) Width() uint { return l.width }

// Policy returns the configured slack policy.
func (l *StaticLottery) Policy() SlackPolicy { return l.policy }

// Tickets returns the configured (unscaled) holdings.
func (l *StaticLottery) Tickets() []uint64 {
	return append([]uint64(nil), l.orig...)
}

// ScaledTickets returns the power-of-two-scaled holdings used for draws.
func (l *StaticLottery) ScaledTickets() []uint64 {
	return append([]uint64(nil), l.scaled...)
}

// RangeTable returns the partial sums Σ_{j<=i} r_j·t_j for the given
// request mask, using the scaled holdings. This is the row the hardware
// lookup table stores for that request map.
func (l *StaticLottery) RangeTable(mask uint64) []uint64 {
	ps := make([]uint64, l.n)
	var acc uint64
	for i, t := range l.scaled {
		if mask>>uint(i)&1 == 1 {
			acc += t
		}
		ps[i] = acc
	}
	return ps
}

// Draws reports how many draws have been performed (including redraws).
func (l *StaticLottery) Draws() uint64 { return l.draws }

// Redraws reports how many PolicyRedraw draws fell into the slack zone.
func (l *StaticLottery) Redraws() uint64 { return l.redraws }

// Draw runs one lottery over the masters in mask (bit i set means master
// i has a pending request). It returns the granted master index, or
// NoWinner if mask is empty or a PolicyRedraw draw hit the slack zone.
func (l *StaticLottery) Draw(mask uint64) int { return l.DrawSet(Mask64Bitset(mask)) }

// DrawSet runs one lottery over the masters in set, at any width. Up to
// lutMaxMasters the live total and the comparator row come from the
// lookup table; beyond it they come from a walk over the set bits, which
// draws the same random words and grants the same winner.
func (l *StaticLottery) DrawSet(set Bitset) int {
	if !set.within(&l.all) {
		return NoWinner
	}
	l.draws++
	lut := &l.origLUT
	if l.policy == PolicyRedraw || l.policy == PolicyAbsorbLast {
		lut = &l.scaledLUT
	}
	total := lut.total(&set)
	var r uint64
	switch l.policy {
	case PolicyModulo:
		if total >= 1<<24 {
			r = prng.Uintn(l.src, total)
		} else {
			r = (l.src.Uint64() & (1<<32 - 1)) % total
		}
	case PolicyRedraw:
		r = l.word()
		if r >= total {
			l.redraws++
			return NoWinner
		}
	case PolicyAbsorbLast:
		r = l.word()
		if r >= total {
			return set.HighestSet()
		}
	default: // PolicyExact
		r = prng.Uintn(l.src, total)
	}
	// The winner's range contains r: the comparator row of the table,
	// or the first crossing among the live requesters.
	if lut.psums != nil {
		return selectWinner(lut.psums[set[0]], r)
	}
	return crossing(lut.holdings, &set, r)
}

// word draws one RNG word in [0, 1<<width).
func (l *StaticLottery) word() uint64 {
	return l.src.Uint64() & (uint64(1)<<l.width - 1)
}

// selectWinner returns the first index whose partial sum exceeds r — the
// comparator bank plus priority selector of the hardware implementation.
// Non-requesters can never win: their partial sum equals their
// predecessor's, so the priority selector always fires on the requester
// whose range actually contains r.
func selectWinner(psums []uint64, r uint64) int {
	for i, p := range psums {
		if r < p {
			return i
		}
	}
	return NoWinner
}

// DynamicLottery is the dynamically-configured lottery manager: ticket
// holdings are inputs to every draw, so any master (or a host processor)
// may re-provision bandwidth at run time.
type DynamicLottery struct {
	n      int
	all    Bitset // the request map with every master pending
	width  uint
	policy SlackPolicy
	src    prng.Source

	draws   uint64
	redraws uint64
}

// DynamicConfig parameterizes NewDynamicLottery.
type DynamicConfig struct {
	// Masters is the number of contenders.
	Masters int
	// Source supplies random words. Required.
	Source prng.Source
	// Policy selects the slack policy; default PolicyExact. Use
	// PolicyModulo for the datapath the paper's dynamic manager
	// hardware implements.
	Policy SlackPolicy
	// Width is the RNG word width for the hardware-style policies
	// (Modulo/Redraw/AbsorbLast); default 16. Live totals must stay
	// below 1<<Width.
	Width uint
}

// NewDynamicLottery builds a dynamic lottery manager.
func NewDynamicLottery(cfg DynamicConfig) (*DynamicLottery, error) {
	if cfg.Masters <= 0 {
		return nil, fmt.Errorf("core: no masters")
	}
	if cfg.Masters > MaxMasters {
		return nil, fmt.Errorf("core: %d masters exceeds core.MaxMasters (%d)", cfg.Masters, MaxMasters)
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("core: nil random source")
	}
	width := cfg.Width
	if width == 0 {
		width = 16
	}
	if width > 32 {
		return nil, fmt.Errorf("core: RNG width %d exceeds 32", width)
	}
	return &DynamicLottery{
		n:      cfg.Masters,
		all:    FullBitset(cfg.Masters),
		width:  width,
		policy: cfg.Policy,
		src:    cfg.Source,
	}, nil
}

// N returns the number of masters.
func (l *DynamicLottery) N() int { return l.n }

// Width returns the RNG word width in bits.
func (l *DynamicLottery) Width() uint { return l.width }

// Policy returns the configured slack policy.
func (l *DynamicLottery) Policy() SlackPolicy { return l.policy }

// Draws reports how many draws have been performed (including redraws).
func (l *DynamicLottery) Draws() uint64 { return l.draws }

// Redraws reports how many PolicyRedraw draws fell into the slack zone.
func (l *DynamicLottery) Redraws() uint64 { return l.redraws }

// Draw runs one lottery over the masters in mask with the given live
// ticket holdings (tickets[i] is ignored unless bit i of mask is set).
// A requester with zero tickets can never win while any contender holds
// tickets; if all requesters hold zero tickets the draw degenerates to
// granting the lowest-indexed requester, so a misconfiguration cannot
// deadlock the bus. Returns the winner index or NoWinner.
func (l *DynamicLottery) Draw(mask uint64, tickets []uint64) int {
	return l.DrawSet(Mask64Bitset(mask), tickets)
}

// DrawSet is Draw over a request map of any width. The AND stage and
// adder tree (paper Fig. 10) run over the live requesters' set bits.
func (l *DynamicLottery) DrawSet(set Bitset, tickets []uint64) int {
	if len(tickets) != l.n {
		panic(fmt.Sprintf("core: Draw with %d tickets for %d masters", len(tickets), l.n))
	}
	if !set.within(&l.all) {
		return NoWinner
	}
	total := liveTotal(tickets, &set)
	if total == 0 {
		return set.LowestSet()
	}
	l.draws++
	var r uint64
	switch {
	case l.policy == PolicyExact || total >= uint64(1)<<l.width:
		// A live total that does not fit the RNG word falls back to the
		// exact path rather than produce garbage grants.
		r = prng.Uintn(l.src, total)
	case l.policy == PolicyRedraw:
		r = l.word()
		if r >= total {
			l.redraws++
			return NoWinner
		}
	case l.policy == PolicyAbsorbLast:
		r = l.word()
		if r >= total {
			return set.HighestSet()
		}
	default: // PolicyModulo — the paper's dynamic manager hardware.
		r = l.word() % total
	}
	return crossing(tickets, &set, r)
}

func (l *DynamicLottery) word() uint64 {
	return l.src.Uint64() & (uint64(1)<<l.width - 1)
}

// AccessProbability returns the probability that a master holding t of T
// total live tickets wins at least one of n consecutive lotteries:
// p = 1 - (1 - t/T)^n (paper §4.2). This is the paper's starvation
// argument: p converges to one geometrically, so no requester is starved.
func AccessProbability(t, total uint64, n int) float64 {
	if total == 0 || n <= 0 {
		return 0
	}
	if t >= total {
		return 1
	}
	q := 1 - float64(t)/float64(total)
	return 1 - math.Pow(q, float64(n))
}

// DrawsForConfidence returns the smallest number of lotteries n such that
// a master holding t of T tickets wins at least once with probability at
// least p. It returns 0 when t >= total (certain on the first draw) and
// -1 for degenerate inputs (t == 0, total == 0, or p >= 1).
func DrawsForConfidence(t, total uint64, p float64) int {
	if t == 0 || total == 0 || p >= 1 {
		return -1
	}
	if t >= total {
		return 1
	}
	if p <= 0 {
		return 1
	}
	q := 1 - float64(t)/float64(total)
	n := math.Log(1-p) / math.Log(q)
	return int(math.Ceil(n))
}
