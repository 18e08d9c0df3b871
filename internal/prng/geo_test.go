package prng

import (
	"math"
	"testing"
)

// geoRef is the geometric variate GeoDist.Draw was defined with: the
// logNat quotient, floored and clamped, for the uniform u.
func geoRef(d GeoDist, u float64) uint64 {
	if d.p == 1 {
		return 0
	}
	k := logNat(1-u) / d.logQ
	if k < 0 {
		return 0
	}
	if k > 1<<62 {
		return 1 << 62
	}
	return uint64(k)
}

// gridSource replays one 53-bit grid point u = x/2^53 as Float64 sees
// it.
type gridSource uint64

func (g gridSource) Uint64() uint64 { return uint64(g) << 11 }

// geoPs spans the distribution's range: p so small that 1-p rounds to
// 1 (ln(1-p) == 0), tiny, moderate, and p so close to 1 that almost
// every draw is 0.
var geoPs = []float64{1e-300, 1e-17, 1e-12, 1e-6, 0.003, 0.05, 0.3, 0.5, 0.72, 0.999, 1 - 1e-12, 1 - 0x1p-53, 1}

// TestGeoDrawMatchesReference proves the fast-log Draw returns exactly
// the logNat variate, over random uniforms and over uniforms straddling
// every integer boundary of the quotient (where the two logarithms could
// floor differently), at extreme and ordinary p.
func TestGeoDrawMatchesReference(t *testing.T) {
	const grid = 1 << 53
	check := func(d GeoDist, x uint64) {
		t.Helper()
		u := float64(x) / grid
		if got, want := d.Draw(gridSource(x)), geoRef(d, u); got != want {
			t.Fatalf("p=%v u=%v: Draw %d, reference %d", d.p, u, got, want)
		}
	}
	src := NewXorShift64Star(2001)
	for _, p := range geoPs {
		d := NewGeoDist(p)
		for i := 0; i < 100000; i++ {
			check(d, src.Uint64()>>11)
		}
		for _, x := range []uint64{0, 1, 2, grid / 2, grid - 2, grid - 1} {
			check(d, x)
		}
		if p == 1 || d.logQ == 0 {
			continue
		}
		// The uniform at which the quotient crosses n is 1-(1-p)^n;
		// walk a few ulps either side of it with Nextafter, snapping
		// each to Float64's 53-bit grid and its neighbours.
		for n := 1; n <= 4000; n = n*3/2 + 1 {
			cross := -math.Expm1(float64(n) * d.logQ)
			for _, dir := range []float64{0, 1} {
				u := cross
				for step := 0; step < 4; step++ {
					x := uint64(u * grid)
					for j := uint64(0); j < 5 && x+j >= 2; j++ {
						if x+j-2 < grid {
							check(d, x+j-2)
						}
					}
					u = math.Nextafter(u, dir)
				}
			}
		}
	}
}

// BenchmarkGeoDraw measures one geometric variate on the fast-log path
// against the logNat reference it reproduces.
func BenchmarkGeoDraw(b *testing.B) {
	d := NewGeoDist(0.05)
	b.Run("fast", func(b *testing.B) {
		src := NewXorShift64Star(1)
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += d.Draw(src)
		}
		_ = sink
	})
	b.Run("lognat", func(b *testing.B) {
		src := NewXorShift64Star(1)
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += geoRef(d, Float64(src))
		}
		_ = sink
	})
}
