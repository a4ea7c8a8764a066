package core

import (
	"testing"
	"testing/quick"
	"time"
)

func TestCLRecordCounts(t *testing.T) {
	tr := newCLTracker(time.Second)
	if got := tr.Record("a", 1); got != 1 {
		t.Fatalf("first Record = %d", got)
	}
	if got := tr.Record("a", 2); got != 2 {
		t.Fatalf("second Record = %d", got)
	}
	if got := tr.Record("b", 3); got != 1 {
		t.Fatalf("other object Record = %d", got)
	}
	if got := tr.Record("a", 1); got != 2 {
		t.Fatalf("repeat Record = %d, want 2", got)
	}
}

func TestCLLevelUnknown(t *testing.T) {
	tr := newCLTracker(time.Second)
	if got := tr.Record("ghost", 1); got != 1 {
		t.Fatalf("first Record of an unknown object = %d, want 1", got)
	}
}

func TestCLWindowExpiry(t *testing.T) {
	tr := newCLTracker(10 * time.Millisecond)
	now := time.Unix(0, 0)
	tr.now = func() time.Time { return now }

	tr.Record("a", 1)
	if got := tr.Record("a", 2); got != 2 {
		t.Fatalf("Record = %d", got)
	}
	// Advance beyond the window: the count resets.
	now = now.Add(20 * time.Millisecond)
	if got := tr.Record("a", 1); got != 1 {
		t.Fatalf("Record after window = %d, want fresh count 1", got)
	}
}

func TestCLDeduplicatesRetries(t *testing.T) {
	// Retries of the same transaction must not inflate the contention
	// level: the paper counts "how many transactions have requested".
	tr := newCLTracker(time.Hour)
	for i := 0; i < 50; i++ {
		if got := tr.Record("hot", 7); got != 1 {
			t.Fatalf("retrying tx inflated CL to %d", got)
		}
	}
	if got := tr.Record("hot", 8); got != 2 {
		t.Fatalf("second tx Record = %d", got)
	}
}

func TestCLDefaultWindow(t *testing.T) {
	tr := newCLTracker(0)
	if tr.window <= 0 {
		t.Fatal("default window not applied")
	}
}

// Property: within one window, Record returns the number of distinct
// requesters so far.
func TestCLCountProperty(t *testing.T) {
	f := func(n uint8) bool {
		tr := newCLTracker(time.Hour)
		for i := 0; i < int(n); i++ {
			tr.Record("x", uint64(i+1))
		}
		return tr.Record("x", 0) == int(n)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveThresholdBounds(t *testing.T) {
	a := newAdaptiveThreshold(3, 2, 6, 4)
	for i := 0; i < 1000; i++ {
		a.Feedback(i%3 == 0)
		v := a.Value()
		if v < 2 || v > 6 {
			t.Fatalf("threshold %d escaped [2,6]", v)
		}
	}
}

func TestAdaptiveThresholdMoves(t *testing.T) {
	a := newAdaptiveThreshold(3, 1, 10, 2)
	start := a.Value()
	// Uniform positive feedback: ratio stays 1.0, direction stays +1.
	for i := 0; i < 8; i++ {
		a.Feedback(true)
	}
	if a.Value() <= start {
		t.Fatalf("threshold did not climb: %d -> %d", start, a.Value())
	}
}

func TestAdaptiveThresholdReversesOnDegradation(t *testing.T) {
	a := newAdaptiveThreshold(5, 1, 10, 2)
	// Batch 1: perfect ratio, climbs to 6.
	a.Feedback(true)
	a.Feedback(true)
	if a.Value() != 6 {
		t.Fatalf("after good batch: %d, want 6", a.Value())
	}
	// Batch 2: ratio collapses; direction reverses, drops to 5.
	a.Feedback(false)
	a.Feedback(false)
	if a.Value() != 5 {
		t.Fatalf("after bad batch: %d, want 5", a.Value())
	}
}

func TestAdaptiveThresholdClampsConstruction(t *testing.T) {
	a := newAdaptiveThreshold(100, 2, 6, 0)
	if a.Value() != 6 {
		t.Fatalf("initial not clamped: %d", a.Value())
	}
	a = newAdaptiveThreshold(-1, 2, 6, 0)
	if a.Value() != 2 {
		t.Fatalf("initial not clamped low: %d", a.Value())
	}
	a = newAdaptiveThreshold(1, -5, -7, 0)
	if a.Value() < 1 {
		t.Fatalf("degenerate bounds produced %d", a.Value())
	}
}
