package sched

import (
	"testing"
	"time"
)

type fixedEst time.Duration

func (f fixedEst) Expect(string) time.Duration { return time.Duration(f) }

func TestModeString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatalf("Mode strings: %q %q", Read, Write)
	}
}

func TestTFADeniesAndRetriesImmediately(t *testing.T) {
	p := NewTFA()
	if p.Name() != "TFA" {
		t.Fatalf("name %q", p.Name())
	}
	d := p.OnConflict(Request{Oid: "x"})
	if d.Enqueue || d.Backoff != 0 {
		t.Fatalf("TFA decision %+v, want deny with zero backoff", d)
	}
	if got := p.RetryDelay(3, "any"); got != 0 {
		t.Fatalf("TFA retry delay %v, want 0", got)
	}
	if q := p.OnRelease("x"); q != nil {
		t.Fatalf("TFA OnRelease = %v", q)
	}
	if q := p.ExtractQueue("x"); q != nil {
		t.Fatalf("TFA ExtractQueue = %v", q)
	}
	p.AdoptQueue("x", []Request{{}}) // must not panic
	if cl := p.ObserveRequest("x", 1); cl != 0 {
		t.Fatalf("TFA ObserveRequest = %d", cl)
	}
}

func TestBackoffDenies(t *testing.T) {
	p := NewBackoff(nil, 0)
	if p.Name() != "TFA+Backoff" {
		t.Fatalf("name %q", p.Name())
	}
	if d := p.OnConflict(Request{}); d.Enqueue {
		t.Fatal("Backoff enqueued")
	}
}

func TestBackoffRetryDelayGrows(t *testing.T) {
	p := NewBackoff(fixedEst(time.Millisecond), time.Second)
	// With jitter in [d/2, d], attempt a's delay band is
	// [2^(a-1)/2 ms, 2^(a-1) ms]; check band membership and that the
	// ceiling of attempt 1 is below the floor of attempt 4.
	d1 := p.RetryDelay(1, "p")
	d4 := p.RetryDelay(4, "p")
	if d1 < 500*time.Microsecond || d1 > time.Millisecond {
		t.Fatalf("attempt1 delay %v out of band", d1)
	}
	if d4 < 4*time.Millisecond || d4 > 8*time.Millisecond {
		t.Fatalf("attempt4 delay %v out of band", d4)
	}
	if d1 >= d4 {
		t.Fatalf("delay did not grow: %v vs %v", d1, d4)
	}
}

func TestBackoffRetryDelayCapped(t *testing.T) {
	max := 5 * time.Millisecond
	p := NewBackoff(fixedEst(time.Millisecond), max)
	for a := 1; a <= 30; a++ {
		if d := p.RetryDelay(a, "p"); d > max {
			t.Fatalf("attempt %d delay %v exceeds cap %v", a, d, max)
		}
	}
}

func TestBackoffDefaultsWithoutEstimator(t *testing.T) {
	p := NewBackoff(nil, 0)
	d := p.RetryDelay(1, "p")
	if d <= 0 || d > 100*time.Millisecond {
		t.Fatalf("delay %v with nil estimator", d)
	}
}

func TestBackoffInvalidAttemptClamped(t *testing.T) {
	p := NewBackoff(fixedEst(time.Millisecond), time.Second)
	if d := p.RetryDelay(0, "p"); d <= 0 {
		t.Fatalf("attempt 0 delay %v", d)
	}
	if d := p.RetryDelay(-3, "p"); d <= 0 {
		t.Fatalf("negative attempt delay %v", d)
	}
	// Huge attempts must not overflow into negative durations.
	if d := p.RetryDelay(1000, "p"); d <= 0 || d > time.Second {
		t.Fatalf("attempt 1000 delay %v", d)
	}
}

func TestBackoffScalesWithProfileEstimate(t *testing.T) {
	slow := NewBackoff(fixedEst(10*time.Millisecond), time.Second)
	fast := NewBackoff(fixedEst(100*time.Microsecond), time.Second)
	// Bands don't overlap for attempt 1: fast ∈ [50µs,100µs], slow ∈ [5ms,10ms].
	if fd, sd := fast.RetryDelay(1, "p"), slow.RetryDelay(1, "p"); fd >= sd {
		t.Fatalf("fast profile delay %v >= slow profile delay %v", fd, sd)
	}
}
