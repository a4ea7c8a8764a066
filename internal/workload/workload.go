// Package workload generates the adversarial workload shapes the
// scheduler-stability literature evaluates against ("Stable Scheduling in
// Transactional Memory", Busch et al.; "A Competitive Analysis for
// Balanced Transactional Memory Workloads", Sharma & Busch): skewed key
// distributions that concentrate conflicts on a few hot objects, and
// open-loop arrival processes that keep offering transactions regardless
// of how many complete. Every generator is deterministic for a fixed
// seed: samplers draw only from the caller's rand.Rand, and arrival
// processes keep their phase state internally, so the same seed replays
// the same schedule. A sampler's Sample method is an apps.KeyPicker: pass
// it as a method value, e.g. workload.NewZipf(0.9).Sample.
package workload

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Zipf samples ranks 0..n-1 with P(rank r) proportional to 1/(r+1)^theta,
// using the constant-time approximation of Gray et al. (the YCSB
// "zipfian generator"). Rank 0 is always the hottest key, so callers can
// reason about which object IDs carry the skew. theta = 0 degenerates to
// uniform; theta is clamped below 1 where the approximation is exact
// enough (theta 0.99 already sends ~35% of draws to the top 3 of 100
// keys). The per-n zeta normalizers are computed once and cached.
type Zipf struct {
	theta float64

	mu   sync.Mutex
	zeta map[int]float64 // zeta(n, theta), cached per key-space size
}

// maxZipfTheta bounds theta: the Gray approximation needs theta < 1.
const maxZipfTheta = 0.999

// NewZipf returns a Zipfian sampler with skew theta (YCSB default 0.99).
// theta <= 0 yields uniform draws; theta >= 1 is clamped to 0.999.
func NewZipf(theta float64) *Zipf {
	if theta < 0 {
		theta = 0
	}
	if theta > maxZipfTheta {
		theta = maxZipfTheta
	}
	return &Zipf{theta: theta, zeta: make(map[int]float64)}
}

// zetaN returns (and caches) zeta(n, theta) = sum_{i=1..n} i^-theta.
func (z *Zipf) zetaN(n int) float64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	if v, ok := z.zeta[n]; ok {
		return v
	}
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), z.theta)
	}
	z.zeta[n] = sum
	return sum
}

// Sample returns a key index in [0, n) drawn from rng. It is safe for
// concurrent use.
func (z *Zipf) Sample(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	if z.theta == 0 {
		return rng.Intn(n)
	}
	zetan := z.zetaN(n)
	zeta2 := 1 + math.Pow(2, -z.theta)
	alpha := 1 / (1 - z.theta)
	eta := (1 - math.Pow(2/float64(n), 1-z.theta)) / (1 - zeta2/zetan)

	u := rng.Float64()
	uz := u * zetan
	switch {
	case uz < 1:
		return 0
	case uz < 1+math.Pow(0.5, z.theta):
		return 1
	}
	r := int(float64(n) * math.Pow(eta*u-eta+1, alpha))
	if r >= n {
		r = n - 1
	}
	if r < 0 {
		r = 0
	}
	return r
}

// HotKeyStorm models a moving hot spot: HotFraction of draws land inside
// a window of HotKeys consecutive keys, and the window slides to a fresh
// position every RotateEvery draws — the "hot-key storm" adversary where
// the contended set itself keeps changing, defeating placement or caching
// that learned the previous hot set. The remaining draws are uniform over
// the whole key space. The rotation counter is shared across workers
// (atomically), so concurrent callers all storm the same window.
type HotKeyStorm struct {
	// HotKeys is the hot-window width. 0 means 2.
	HotKeys int
	// HotFraction of draws hit the hot window. 0 means 0.9.
	HotFraction float64
	// RotateEvery is how many draws a window position lasts. 0 pins the
	// window at the start of the key space for the whole run.
	RotateEvery uint64

	draws atomic.Uint64
}

// NewHotKeyStorm returns a storm sampler with the given window width,
// hot fraction, and rotation period (see the field docs for zero values).
func NewHotKeyStorm(hotKeys int, hotFraction float64, rotateEvery uint64) *HotKeyStorm {
	return &HotKeyStorm{HotKeys: hotKeys, HotFraction: hotFraction, RotateEvery: rotateEvery}
}

// Sample returns a key index in [0, n) drawn from rng. It is safe for
// concurrent use.
func (h *HotKeyStorm) Sample(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	hot := h.HotKeys
	if hot <= 0 {
		hot = 2
	}
	if hot > n {
		hot = n
	}
	frac := h.HotFraction
	if frac <= 0 {
		frac = 0.9
	}
	i := h.draws.Add(1) - 1
	if rng.Float64() >= frac {
		return rng.Intn(n)
	}
	var start int
	if h.RotateEvery > 0 {
		// Slide by the window width each period so successive hot sets are
		// disjoint until the space wraps.
		start = int((i / h.RotateEvery * uint64(hot)) % uint64(n))
	}
	return (start + rng.Intn(hot)) % n
}
