package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestZipfSeedDeterminism: the same seed must replay the same key
// sequence — the property every pinned stability cell and CI gate rests
// on.
func TestZipfSeedDeterminism(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 0.9, 0.99} {
		a, b := NewZipf(theta), NewZipf(theta)
		ra := rand.New(rand.NewSource(7))
		rb := rand.New(rand.NewSource(7))
		for i := 0; i < 10_000; i++ {
			if ka, kb := a.Sample(ra, 128), b.Sample(rb, 128); ka != kb {
				t.Fatalf("theta=%.2f draw %d: %d != %d", theta, i, ka, kb)
			}
		}
	}
}

// TestZipfRankFrequencySlope: the defining property of a Zipfian
// distribution is log(freq) ≈ -theta·log(rank) + c. Fit the slope over
// the head ranks of a large sample and require it within tolerance of
// -theta, so a regression in the generator cannot silently flatten (or
// sharpen) the skew every stability result depends on.
func TestZipfRankFrequencySlope(t *testing.T) {
	cases := []struct {
		theta float64
		tol   float64
	}{
		{theta: 0.5, tol: 0.12},
		{theta: 0.9, tol: 0.12},
		{theta: 0.99, tol: 0.12},
	}
	const n, draws = 100, 400_000
	for _, tc := range cases {
		z := NewZipf(tc.theta)
		rng := rand.New(rand.NewSource(1))
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[z.Sample(rng, n)]++
		}
		// Rank 0 must be the hottest key: the mapping rank→key is identity.
		for r := 1; r < 10; r++ {
			if counts[r] > counts[0] {
				t.Fatalf("theta=%.2f: rank %d (%d draws) hotter than rank 0 (%d)",
					tc.theta, r, counts[r], counts[0])
			}
		}
		// Least-squares fit of log(count) vs log(rank+1) over the head,
		// where the approximation is tightest and counts are large.
		var sx, sy, sxx, sxy float64
		const head = 20
		for r := 0; r < head; r++ {
			if counts[r] == 0 {
				t.Fatalf("theta=%.2f: head rank %d never drawn", tc.theta, r)
			}
			x := math.Log(float64(r + 1))
			y := math.Log(float64(counts[r]))
			sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
		}
		slope := (float64(head)*sxy - sx*sy) / (float64(head)*sxx - sx*sx)
		if got, want := -slope, tc.theta; math.Abs(got-want) > tc.tol {
			t.Errorf("theta=%.2f: fitted rank-frequency slope %.3f, want within %.2f",
				want, got, tc.tol)
		}
	}
}

// TestZipfThetaEdges: the clamping and degenerate cases must stay total —
// no panics, indices always in range, theta=0 statistically uniform.
func TestZipfThetaEdges(t *testing.T) {
	t.Run("negative-and-ge-one-clamp", func(t *testing.T) {
		for theta, clamped := range map[float64]float64{-1: 0, 1: maxZipfTheta, 1.5: maxZipfTheta, 10: maxZipfTheta} {
			z, want := NewZipf(theta), NewZipf(clamped)
			rng, wantRng := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
			for i := 0; i < 5_000; i++ {
				k := z.Sample(rng, 17)
				if k < 0 || k >= 17 {
					t.Fatalf("theta=%v: sample %d out of range", theta, k)
				}
				if w := want.Sample(wantRng, 17); k != w {
					t.Fatalf("theta=%v draw %d: %d, want %d as with theta %v", theta, i, k, w, clamped)
				}
			}
		}
	})
	t.Run("n-one", func(t *testing.T) {
		z := NewZipf(0.9)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 100; i++ {
			if k := z.Sample(rng, 1); k != 0 {
				t.Fatalf("n=1 sampled %d", k)
			}
		}
	})
	t.Run("theta-zero-uniform", func(t *testing.T) {
		z := NewZipf(0)
		rng := rand.New(rand.NewSource(5))
		const n, draws = 16, 160_000
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[z.Sample(rng, n)]++
		}
		want := float64(draws) / n
		for k, c := range counts {
			if math.Abs(float64(c)-want) > 0.1*want {
				t.Errorf("theta=0 key %d drawn %d times, want ~%.0f ±10%%", k, c, want)
			}
		}
	})
}

// TestHotKeyStorm: the configured fraction of draws must land in the hot
// window, and the window must actually rotate to disjoint positions.
func TestHotKeyStorm(t *testing.T) {
	t.Run("fraction", func(t *testing.T) {
		s := NewHotKeyStorm(4, 0.8, 0) // pinned window [0,4)
		rng := rand.New(rand.NewSource(9))
		const n, draws = 64, 100_000
		hot := 0
		for i := 0; i < draws; i++ {
			if s.Sample(rng, n) < 4 {
				hot++
			}
		}
		// 80% targeted + uniform spillover (4/64 of the remaining 20%).
		want := 0.8 + 0.2*4.0/64
		if got := float64(hot) / draws; math.Abs(got-want) > 0.03 {
			t.Errorf("hot fraction %.3f, want ~%.3f", got, want)
		}
	})
	t.Run("rotation", func(t *testing.T) {
		s := NewHotKeyStorm(4, 1.0, 1000) // every draw hot, window slides by 4
		rng := rand.New(rand.NewSource(9))
		const n = 64
		windows := make(map[int]bool)
		for i := 0; i < 4000; i++ {
			windows[s.Sample(rng, n)/4] = true
		}
		if len(windows) < 3 {
			t.Errorf("saw %d distinct hot windows over 4 rotation periods, want >= 3", len(windows))
		}
	})
	t.Run("zero-value-defaults", func(t *testing.T) {
		var s HotKeyStorm
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 1000; i++ {
			if k := s.Sample(rng, 8); k < 0 || k >= 8 {
				t.Fatalf("sample %d out of range", k)
			}
		}
	})
}
