package sched

import (
	"math/rand"
	"sync"
	"time"

	"dstm/internal/object"
)

// noQueue provides the queue-related no-ops shared by policies that never
// enqueue requesters.
type noQueue struct{}

func (noQueue) OnRelease(object.ID) []Request        { return nil }
func (noQueue) QueueDepth() int                      { return 0 }
func (noQueue) ExtractQueue(object.ID) []Request     { return nil }
func (noQueue) AdoptQueue(object.ID, []Request)      {}
func (noQueue) OnConflict(Request) Decision          { return Decision{} }
func (noQueue) ObserveRequest(object.ID, uint64) int { return 0 }
func (noQueue) RetryDelay(int, string) time.Duration { return 0 }

// TFA is the scheduler-less baseline: conflicting requests are denied and
// aborted transactions restart immediately.
type TFA struct{ noQueue }

// NewTFA returns the plain-TFA policy.
func NewTFA() *TFA { return &TFA{} }

// Name implements Policy.
func (*TFA) Name() string { return "TFA" }

// Backoff is the TFA+Backoff baseline: conflicting requests are denied, and
// the aborted transaction stalls before restarting. The stall grows
// exponentially with the retry attempt, seeded by the transaction profile's
// expected execution time (from the stats table) so long transactions back
// off proportionally longer, and jittered to break synchronisation.
type Backoff struct {
	noQueue
	est Estimator
	max time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff returns the TFA+Backoff policy. est may be nil, in which case
// a fixed 1 ms base is used. max caps the stall (0 means 100 ms).
func NewBackoff(est Estimator, max time.Duration) *Backoff {
	if max <= 0 {
		max = 100 * time.Millisecond
	}
	return &Backoff{
		est: est,
		max: max,
		rng: rand.New(rand.NewSource(0x5eedb0ff)),
	}
}

// Name implements Policy.
func (*Backoff) Name() string { return "TFA+Backoff" }

// RetryDelay implements Policy: base × 2^(attempt-1), jittered ±50 %, capped.
func (b *Backoff) RetryDelay(attempt int, profile string) time.Duration {
	base := time.Millisecond
	if b.est != nil {
		if e := b.est.Expect(profile); e > 0 {
			base = e
		}
	}
	if attempt < 1 {
		attempt = 1
	}
	if attempt > 16 {
		attempt = 16
	}
	d := base << uint(attempt-1)
	if d > b.max || d <= 0 {
		d = b.max
	}
	b.mu.Lock()
	jitter := time.Duration(b.rng.Int63n(int64(d) + 1))
	b.mu.Unlock()
	d = d/2 + jitter/2
	if d > b.max {
		d = b.max
	}
	return d
}

// Compile-time interface checks.
var (
	_ Policy       = (*TFA)(nil)
	_ Policy       = (*Backoff)(nil)
	_ QueueDepther = (*TFA)(nil)
	_ QueueDepther = (*Backoff)(nil)
)
