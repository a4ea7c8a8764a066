package stats

import (
	"testing"
	"testing/quick"
	"time"
)

func TestExpectFallback(t *testing.T) {
	tb := NewTable(3 * time.Millisecond)
	if got := tb.Expect("unknown"); got != 3*time.Millisecond {
		t.Fatalf("Expect on empty table = %v, want fallback", got)
	}
}

func TestNewTableClampsFallback(t *testing.T) {
	tb := NewTable(0)
	if got := tb.Expect("x"); got <= 0 {
		t.Fatalf("fallback not clamped: %v", got)
	}
}

func TestExpectAverages(t *testing.T) {
	tb := NewTable(time.Millisecond)
	tb.RecordCommit("tx", 100*time.Microsecond)
	tb.RecordCommit("tx", 300*time.Microsecond)
	if got := tb.Expect("tx"); got != 200*time.Microsecond {
		t.Fatalf("Expect = %v, want 200µs", got)
	}
}

func TestProfilesIndependent(t *testing.T) {
	tb := NewTable(time.Millisecond)
	tb.RecordCommit("a", 100*time.Microsecond)
	tb.RecordCommit("b", 900*time.Microsecond)
	if got := tb.Expect("a"); got != 100*time.Microsecond {
		t.Fatalf("profile a polluted: %v", got)
	}
	if got := tb.Expect("b"); got != 900*time.Microsecond {
		t.Fatalf("profile b polluted: %v", got)
	}
	if got := tb.Expect("c"); got != time.Millisecond {
		t.Fatalf("profile c, never recorded: %v, want the fallback", got)
	}
}

func TestWindowRollover(t *testing.T) {
	tb := NewTable(time.Millisecond)
	// Fill well past the window with a constant value; the estimate must
	// remain that value across rebuilds.
	for i := 0; i < DefaultWindow*3; i++ {
		tb.RecordCommit("tx", 200*time.Microsecond)
	}
	if got := tb.Expect("tx"); got != 200*time.Microsecond {
		t.Fatalf("Expect = %v after rollover, want 200µs", got)
	}
}

func TestWindowTracksRegimeChange(t *testing.T) {
	tb := NewTable(time.Millisecond)
	for i := 0; i < DefaultWindow; i++ {
		tb.RecordCommit("tx", 100*time.Microsecond)
	}
	// Regime change: commits now take 10x longer. After enough samples the
	// estimate must move most of the way to the new value.
	for i := 0; i < DefaultWindow*4; i++ {
		tb.RecordCommit("tx", time.Millisecond)
	}
	got := tb.Expect("tx")
	if got < 900*time.Microsecond {
		t.Fatalf("Expect = %v, estimate failed to track regime change", got)
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	tb := NewTable(time.Millisecond)
	tb.RecordCommit("tx", -5*time.Second)
	if got := tb.Expect("tx"); got < 0 {
		t.Fatalf("Expect = %v, negative", got)
	}
}

// Property: Expect is always within [min, max] of the recorded samples
// (within one window, no rollover).
func TestExpectBoundedBySamples(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) >= DefaultWindow {
			return true
		}
		tb := NewTable(time.Millisecond)
		min := time.Duration(1<<63 - 1)
		max := time.Duration(0)
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			tb.RecordCommit("p", d)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		got := tb.Expect("p")
		return got >= min && got <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	tb := NewTable(time.Millisecond)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			name := []string{"a", "b"}[g%2]
			for i := 0; i < 500; i++ {
				tb.RecordCommit(name, time.Duration(i)*time.Microsecond)
				_ = tb.Expect(name)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}
