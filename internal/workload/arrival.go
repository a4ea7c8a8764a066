package workload

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Arrival is an open-loop arrival process: Next returns the gap between
// the previous admission and the next one. Gaps are virtual-time — the
// driver keeps an absolute schedule (start + sum of gaps) and never lets
// sleep jitter or slow service thin the offered load, which is the whole
// point of an open loop. Implementations keep their own phase state and
// must be safe for concurrent use, though drivers normally run one
// arrival clock per cell.
type Arrival interface {
	// Name identifies the process in reports ("constant", "poisson",
	// "burst", "conflict-window").
	Name() string

	// Next returns the inter-arrival gap to the next admission; 0 means
	// simultaneous with the previous one.
	Next(rng *rand.Rand) time.Duration
}

// perSecond converts an arrivals-per-second rate to the mean gap.
func perSecond(rate float64) time.Duration {
	if rate <= 0 {
		return time.Second
	}
	return time.Duration(float64(time.Second) / rate)
}

// Constant admits at a fixed rate with equal spacing — the smoothest
// possible offered load, the baseline the adversarial processes deviate
// from at the same mean rate.
type Constant struct{ Rate float64 }

// NewConstant returns a constant-rate process (arrivals per second).
func NewConstant(rate float64) *Constant { return &Constant{Rate: rate} }

// Name implements Arrival.
func (*Constant) Name() string { return "constant" }

// Next implements Arrival.
func (c *Constant) Next(*rand.Rand) time.Duration { return perSecond(c.Rate) }

// Poisson admits with exponential gaps (a memoryless M/G/k offered load):
// same mean rate as Constant but with natural micro-bursts.
type Poisson struct{ Rate float64 }

// NewPoisson returns a Poisson process (mean arrivals per second).
func NewPoisson(rate float64) *Poisson { return &Poisson{Rate: rate} }

// Name implements Arrival.
func (*Poisson) Name() string { return "poisson" }

// Next implements Arrival.
func (p *Poisson) Next(rng *rand.Rand) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(perSecond(p.Rate)))
}

// Burst is an on/off (interrupted) process: arrivals at Rate, equally
// spaced, during each On window, then silence for Off. The windowed
// adversary of Busch et al.: the same mean load as a smooth process at
// Rate·On/(On+Off), but delivered in slabs that must be absorbed by the
// queue. Phase state advances in virtual time, so the duty cycle is exact
// regardless of wall-clock jitter.
type Burst struct {
	Rate    float64 // arrivals per second while "on"
	On, Off time.Duration

	mu sync.Mutex
	t  time.Duration // virtual time of the previous arrival
}

// NewBurst returns an on/off burst process.
func NewBurst(rate float64, on, off time.Duration) *Burst {
	return &Burst{Rate: rate, On: on, Off: off}
}

// Name implements Arrival.
func (*Burst) Name() string { return "burst" }

// Next implements Arrival.
func (b *Burst) Next(*rand.Rand) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	on, off := b.On, b.Off
	if on <= 0 {
		on = 10 * time.Millisecond
	}
	cycle := on + off
	next := b.t + perSecond(b.Rate)
	if phase := next % cycle; phase >= on {
		// Landed in the off window: defer to the start of the next cycle.
		next += cycle - phase
	}
	gap := next - b.t
	b.t = next
	return gap
}

// ConflictWindow is the adversarial pattern: every Period it releases
// BurstSize arrivals simultaneously (zero gap). Period should be set near
// the system's commit cadence — the repo benchmark's write_p50_ms on the
// same fabric is the calibration source — so each burst lands while
// the previous burst's winner still holds its commit locks. Every burst
// member then hits commit-locked objects at once, forcing the scheduler's
// enqueue-vs-abort decision on the whole cohort; this is the arrival
// pattern under which RTS's queueing and TFA's abort-retry separate most.
type ConflictWindow struct {
	Period    time.Duration
	BurstSize int

	mu sync.Mutex
	i  int // arrivals released in the current burst
}

// NewConflictWindow returns the conflict-window adversary. burstSize <= 0
// means 8.
func NewConflictWindow(period time.Duration, burstSize int) *ConflictWindow {
	if burstSize <= 0 {
		burstSize = 8
	}
	if period <= 0 {
		period = 10 * time.Millisecond
	}
	// The first arrival is implicit (drivers only call Next between
	// arrivals), so it occupies the first burst slot.
	return &ConflictWindow{Period: period, BurstSize: burstSize, i: 1}
}

// Name implements Arrival.
func (*ConflictWindow) Name() string { return "conflict-window" }

// Next implements Arrival.
func (w *ConflictWindow) Next(*rand.Rand) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.i < w.BurstSize {
		w.i++
		return 0
	}
	w.i = 1
	return w.Period
}

// Drive runs an open-loop arrival clock against admit: it calls admit(i)
// at each scheduled arrival, sleeping the process's gaps in between,
// until ctx is done, n arrivals have been offered (n <= 0 means
// unbounded), or admit returns false. The schedule is absolute
// (start + cumulative gaps): if execution falls behind — a long admit, a
// coarse sleep — subsequent arrivals fire back-to-back until the clock
// catches up, so the offered load does not silently sag. Returns the
// number of arrivals offered.
func Drive(ctx context.Context, a Arrival, rng *rand.Rand, n int, admit func(i int) bool) int {
	start := time.Now()
	var sched time.Duration // next arrival's offset from start
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	for i := 0; ; i++ {
		if n > 0 && i >= n {
			return i
		}
		if i > 0 {
			sched += a.Next(rng)
		}
		if wait := sched - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return i
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			return i
		}
		if !admit(i) {
			return i + 1
		}
	}
}
