// Package prng provides small, deterministic pseudo-random number
// generators and integer distributions used throughout the simulator.
//
// The simulator deliberately avoids math/rand: every stochastic element of
// an experiment draws from an explicitly seeded source in this package (or
// from a hardware-faithful LFSR in package lfsr), so simulation runs are
// bit-reproducible across machines and Go versions.
package prng

import (
	"math"
	"math/bits"
)

// Source is the minimal interface for a 64-bit pseudo-random stream.
// Implementations must be deterministic functions of their seed.
type Source interface {
	// Uint64 returns the next 64 bits of the stream.
	Uint64() uint64
}

// SplitMix64 is a tiny, well-mixed generator used primarily to expand a
// single user seed into independent seeds for many components.
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 advances the stream and returns the next value.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// XorShift64Star is the workhorse generator for traffic processes.
// It has period 2^64-1 and passes the usual empirical batteries for the
// purposes of a performance simulator. The state must never be zero; the
// constructor guards against that.
type XorShift64Star struct {
	state uint64
}

// NewXorShift64Star returns a generator seeded from seed. A zero seed is
// remapped through SplitMix64 so the state is never zero.
func NewXorShift64Star(seed uint64) *XorShift64Star {
	sm := NewSplitMix64(seed)
	st := sm.Uint64()
	if st == 0 {
		st = 0x6a09e667f3bcc908 // sqrt(2) fractional bits; arbitrary nonzero
	}
	return &XorShift64Star{state: st}
}

// Uint64 advances the stream and returns the next value.
func (x *XorShift64Star) Uint64() uint64 {
	s := x.state
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	x.state = s
	return s * 0x2545f4914f6cdd1d
}

// Uintn returns a uniform integer in [0, n) drawn from src.
// It panics if n == 0. Uses Lemire's multiply-shift rejection method, so
// the result is exactly uniform.
func Uintn(src Source, n uint64) uint64 {
	if n == 0 {
		panic("prng: Uintn with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return src.Uint64() & (n - 1)
	}
	// Lemire rejection sampling on the 64x64->128 multiply.
	for {
		v := src.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n {
			return hi
		}
		// lo < n: possible bias zone; accept only if lo >= 2^64 mod n.
		thresh := (-n) % n
		if lo >= thresh {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo). bits.Mul64
// compiles to the platform's widening multiply instruction, keeping the
// per-draw Lemire reduction on the lottery hot path branch-free.
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func Intn(src Source, n int) int {
	if n <= 0 {
		panic("prng: Intn with n <= 0")
	}
	return int(Uintn(src, uint64(n)))
}

// IntRange returns a uniform int in [lo, hi]. It panics if hi < lo.
func IntRange(src Source, lo, hi int) int {
	if hi < lo {
		panic("prng: IntRange with hi < lo")
	}
	return lo + Intn(src, hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func Float64(src Source, _ ...struct{}) float64 {
	return float64(src.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func Bernoulli(src Source, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return Float64(src) < p
}

// Geometric returns the number of failures before the first success of a
// Bernoulli(p) process, i.e. a geometric variate on {0, 1, 2, ...} with
// mean (1-p)/p. It panics unless 0 < p <= 1.
//
// The implementation inverts the CDF rather than looping, so extremely
// small p cannot stall the simulator. Draw-heavy callers with a fixed p
// should hold a GeoDist instead, which precomputes the constant
// divisor ln(1-p).
func Geometric(src Source, p float64) uint64 {
	return NewGeoDist(p).Draw(src)
}

// GeoDist is a geometric distribution with the constant divisor ln(1-p)
// of the CDF inversion precomputed. Draw consumes exactly the PRNG
// values Geometric(src, p) would and returns bit-identical variates;
// only the per-draw logarithm of the constant is saved, and the
// per-draw logarithm of 1-u is taken with math.Log unless that could
// move the floor (see Draw).
type GeoDist struct {
	p    float64
	logQ float64 // ln(1-p); unused when p == 1
}

// NewGeoDist builds a geometric distribution. It panics unless
// 0 < p <= 1.
func NewGeoDist(p float64) GeoDist {
	if p <= 0 || p > 1 {
		panic("prng: Geometric requires 0 < p <= 1")
	}
	d := GeoDist{p: p}
	if p < 1 {
		d.logQ = logNat(1 - p)
	}
	return d
}

// Draw returns one geometric variate, consuming one PRNG value (none
// when p == 1).
func (d GeoDist) Draw(src Source) uint64 {
	if d.p == 1 {
		return 0
	}
	u := Float64(src)
	// k = floor(ln(1-u)/ln(1-p)), pinned to the logNat quotient the
	// variates were defined with. math.Log is several times faster and
	// agrees with logNat to ~1e-12 relative, so the two quotients can
	// only floor differently when they lie that close to an integer:
	// recompute with logNat only inside a 1e-9 relative margin of one
	// (Ziv's strategy: a fast approximation, the exact path on demand).
	k := math.Log(1-u) / d.logQ
	if r := math.Round(k); r != 0 && math.Abs(k-r) <= geoMargin*k {
		k = logNat(1-u) / d.logQ
	}
	if k < 0 {
		return 0
	}
	if k > 1<<62 {
		return 1 << 62
	}
	return uint64(k)
}

// geoMargin is GeoDist.Draw's relative distance to an integer within
// which the fast quotient defers to logNat: three orders of magnitude
// above the two logarithms' combined relative error.
const geoMargin = 1e-9

// logNat is a dependency-free natural logarithm adequate for distribution
// inversion (relative error < 1e-12 over (0, 1]). It uses the
// atanh-series after range reduction by powers of two.
func logNat(x float64) float64 {
	if x <= 0 {
		// The callers only pass values in (0,1]; treat underflow as a
		// very negative logarithm so Geometric saturates instead of
		// misbehaving.
		return -709.0
	}
	// Range-reduce x into [1/sqrt2, sqrt2) by factoring out 2^k.
	const ln2 = 0.6931471805599453
	k := 0
	for x >= 1.4142135623730951 {
		x /= 2
		k++
	}
	for x < 0.7071067811865476 {
		x *= 2
		k--
	}
	// ln(x) = 2*atanh((x-1)/(x+1)); series converges fast near 1.
	y := (x - 1) / (x + 1)
	y2 := y * y
	term := y
	sum := 0.0
	for i := 1; i < 60; i += 2 {
		sum += term / float64(i)
		term *= y2
		if term < 1e-20 && term > -1e-20 {
			break
		}
	}
	return 2*sum + float64(k)*ln2
}

// Discrete draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero-weight entries are never selected.
// It panics if the weights are empty or sum to zero.
func Discrete(src Source, weights []uint64) int {
	var total uint64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		panic("prng: Discrete with zero total weight")
	}
	v := Uintn(src, total)
	var acc uint64
	for i, w := range weights {
		acc += w
		if v < acc {
			return i
		}
	}
	// Unreachable: v < total == acc after the loop.
	return len(weights) - 1
}

// Shuffle permutes s in place using the Fisher-Yates algorithm.
func Shuffle[T any](src Source, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := Intn(src, i+1)
		s[i], s[j] = s[j], s[i]
	}
}

// Derive expands a root seed and a component label into an independent
// stream seed. Components created with distinct labels observe
// statistically independent streams for the same root seed.
func Derive(root uint64, label string) uint64 {
	sm := NewSplitMix64(root)
	h := sm.Uint64()
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3 // FNV-1a prime
		h ^= h >> 29
	}
	return (&SplitMix64{state: h}).Uint64()
}
