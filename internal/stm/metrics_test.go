package stm

import (
	"reflect"
	"testing"
	"time"
)

func TestAbortCauseStrings(t *testing.T) {
	want := map[AbortCause]string{
		AbortDenied:       "denied",
		AbortQueueTimeout: "queue-timeout",
		AbortValidation:   "validation",
		AbortLockFailed:   "lock-failed",
		AbortCause(200):   "unknown",
	}
	for c, w := range want {
		if got := c.String(); got != w {
			t.Errorf("%d.String() = %q, want %q", c, got, w)
		}
	}
}

func TestMetricsSnapshotAndMerge(t *testing.T) {
	var m Metrics
	m.commits.Add(3)
	m.aborts[AbortDenied].Add(2)
	m.aborts[AbortValidation].Add(1)
	m.nestedCommits.Add(5)
	m.nestedOwn.Add(4)
	m.nestedParent.Add(6)
	m.enqueues.Add(7)
	m.pushes.Add(8)
	m.retrieves.Add(9)
	m.prefetched.Add(10)
	m.prefOpened.Add(14)

	s := m.Snapshot()
	if s.Commits != 3 || s.NestedCommits != 5 || s.NestedOwn != 4 ||
		s.NestedParent != 6 || s.Enqueues != 7 || s.Pushes != 8 || s.Retrieves != 9 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.TotalAborts() != 3 {
		t.Fatalf("TotalAborts = %d", s.TotalAborts())
	}
	if got := s.NestedAbortRate(); got != 0.6 {
		t.Fatalf("NestedAbortRate = %v, want 0.6", got)
	}

	var sum MetricsSnapshot
	sum.Merge(s)
	sum.Merge(s)
	if sum.Commits != 6 || sum.Aborts[AbortDenied] != 4 || sum.NestedParent != 12 {
		t.Fatalf("merged %+v", sum)
	}
}

// fullyPopulated returns a snapshot in which every field — including every
// abort cause and every outcome's attempt time — is non-zero.
func fullyPopulated() MetricsSnapshot {
	var m Metrics
	m.commits.Add(3)
	m.nestedCommits.Add(5)
	m.nestedOwn.Add(4)
	m.nestedParent.Add(6)
	m.enqueues.Add(7)
	m.pushes.Add(8)
	m.retrieves.Add(9)
	m.retrieveWaves.Add(16)
	m.remoteCopies.Add(17)
	m.staleHops.Add(18)
	m.prefetched.Add(10)
	m.prefOpened.Add(14)
	m.commitMsgs.Add(15)
	m.commitRounds.Add(12)
	m.readOnlyCommits.Add(11)
	m.readMsgs.Add(13)
	m.observeOutcome(true, 0, 3*time.Millisecond)
	for c := AbortCause(0); c < numAbortCauses; c++ {
		m.aborts[c].Add(uint64(c) + 1)
		m.observeOutcome(false, c, time.Duration(c+1)*time.Millisecond)
	}
	return m.Snapshot()
}

// TestMergePreservesEveryField is a reflection guard: if a counter is ever
// added to MetricsSnapshot but forgotten in Merge (or Sub), this test fails
// without needing to know the field's name.
func TestMergePreservesEveryField(t *testing.T) {
	a := fullyPopulated()

	// The guard only works if the populated snapshot really has no zero
	// field — a newly added field shows up here first.
	v := reflect.ValueOf(a)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("field %s of the populated snapshot is zero — teach fullyPopulated about it",
				v.Type().Field(i).Name)
		}
	}
	for k, h := range a.Latency {
		if h.Count() == 0 {
			t.Fatalf("attempt time %q is empty in the populated snapshot", k)
		}
	}

	// Merge into a zero snapshot must reproduce a exactly: any field Merge
	// forgets stays zero and breaks the comparison.
	var b MetricsSnapshot
	b.Merge(a)
	if !reflect.DeepEqual(b, a) {
		t.Fatalf("merge into zero lost fields:\n got %+v\nwant %+v", b, a)
	}

	// Doubling then subtracting must round-trip (guards Sub the same way).
	b.Merge(a)
	b.Sub(a)
	if !reflect.DeepEqual(b, a) {
		t.Fatalf("merge+sub did not round-trip:\n got %+v\nwant %+v", b, a)
	}
}

func TestNestedAbortRateZeroWhenNoAborts(t *testing.T) {
	var m Metrics
	if got := m.Snapshot().NestedAbortRate(); got != 0 {
		t.Fatalf("rate = %v on empty metrics", got)
	}
}
