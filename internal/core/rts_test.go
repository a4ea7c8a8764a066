package core

import (
	"strconv"
	"testing"
	"time"

	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
)

func mkReq(oid string, tx uint64, node int32, mode sched.Mode, elapsed, remaining time.Duration, myCL int) sched.Request {
	return sched.Request{
		Oid:               object.ID("obj/" + oid),
		TxID:              tx,
		Node:              transport.NodeID(node),
		Mode:              mode,
		MyCL:              myCL,
		Elapsed:           elapsed,
		ExpectedRemaining: remaining,
	}
}

func TestRTSName(t *testing.T) {
	r := New(Options{})
	if r.Name() != "RTS" {
		t.Fatalf("name %q", r.Name())
	}
	if r.Threshold() != DefaultCLThreshold {
		t.Fatalf("default threshold %d", r.Threshold())
	}
}

// A long-running, low-contention parent is enqueued with a backoff equal to
// the expected remaining time of the queue (its own entry included).
func TestRTSEnqueuesLongRunningLowCL(t *testing.T) {
	r := New(Options{CLThreshold: 3})
	req := mkReq("x", 1, 1, sched.Write, 10*time.Millisecond, 2*time.Millisecond, 0)
	d := r.OnConflict(req)
	if !d.Enqueue {
		t.Fatalf("long-running low-CL parent was aborted: %+v", d)
	}
	if d.Backoff != 2*time.Millisecond {
		t.Fatalf("backoff %v, want 2ms", d.Backoff)
	}
	if r.QueueLen("obj/x") != 1 {
		t.Fatalf("queue length %d", r.QueueLen("obj/x"))
	}
}

// A short-running parent aborts: its elapsed time does not exceed the
// accumulated backoff it would wait (paper: "RTS aborts a parent
// transaction with a short execution time").
func TestRTSAbortsShortRunning(t *testing.T) {
	r := New(Options{CLThreshold: 10})
	// First requester occupies the queue with 5ms expected remaining.
	d1 := r.OnConflict(mkReq("x", 1, 1, sched.Write, 10*time.Millisecond, 5*time.Millisecond, 0))
	if !d1.Enqueue {
		t.Fatal("setup enqueue failed")
	}
	// Second requester has run only 1ms < bk of 5ms: abort.
	d2 := r.OnConflict(mkReq("x", 2, 2, sched.Write, time.Millisecond, time.Millisecond, 0))
	if d2.Enqueue {
		t.Fatalf("short-running parent was enqueued: %+v", d2)
	}
}

// A high-CL parent aborts even when long-running (paper §III-B: T5 aborts
// because CL 4 >= threshold).
func TestRTSAbortsHighContention(t *testing.T) {
	r := New(Options{CLThreshold: 3})
	// myCL 4 alone pushes contention to 1+4 = 5 >= 3.
	d := r.OnConflict(mkReq("x", 1, 1, sched.Write, time.Second, time.Millisecond, 4))
	if d.Enqueue {
		t.Fatalf("high-CL parent was enqueued: %+v", d)
	}
	if r.QueueLen("obj/x") != 0 {
		t.Fatal("aborted requester left in queue")
	}
}

// Backoff accumulates across enqueued requesters (Algorithm 3: bk += ETS.c − ETS.r).
func TestRTSBackoffAccumulates(t *testing.T) {
	r := New(Options{CLThreshold: 10})
	d1 := r.OnConflict(mkReq("x", 1, 1, sched.Write, time.Second, 3*time.Millisecond, 0))
	d2 := r.OnConflict(mkReq("x", 2, 2, sched.Write, time.Second, 4*time.Millisecond, 0))
	if !d1.Enqueue || !d2.Enqueue {
		t.Fatalf("decisions: %+v %+v", d1, d2)
	}
	if d1.Backoff != 3*time.Millisecond {
		t.Fatalf("first backoff %v", d1.Backoff)
	}
	if d2.Backoff != 7*time.Millisecond {
		t.Fatalf("second backoff %v, want 3+4ms", d2.Backoff)
	}
}

// Example from §III-B, object-based scenario: T4 enqueued (CL 2 < 3), T5
// aborted (CL 4 >= 3).
func TestRTSPaperScenario(t *testing.T) {
	r := New(Options{CLThreshold: 3})
	// T4: has run 30ms (> bk 0), holds objects o2,o3 with total CL 1.
	d4 := r.OnConflict(mkReq("o1", 4, 4, sched.Write, 30*time.Millisecond, 10*time.Millisecond, 1))
	if !d4.Enqueue {
		t.Fatal("T4 should be enqueued (CL 2 < threshold 3)")
	}
	// T5: long-running too, but holds o4 with CL 2 → contention = 2(local incl. T5) + 2 = 4.
	d5 := r.OnConflict(mkReq("o1", 5, 5, sched.Write, 40*time.Millisecond, 10*time.Millisecond, 2))
	if d5.Enqueue {
		t.Fatal("T5 should abort (CL 4 >= threshold 3)")
	}
	// T6: short execution time → abort.
	d6 := r.OnConflict(mkReq("o1", 6, 6, sched.Write, time.Millisecond, 10*time.Millisecond, 0))
	if d6.Enqueue {
		t.Fatal("T6 should abort (short execution time)")
	}
}

// The CL threshold caps the queue (paper §III-C): with threshold 3 and no
// remote CL, two conflicting requesters queue and the third is denied.
func TestRTSQueueCap(t *testing.T) {
	r := New(Options{CLThreshold: 3})
	for i := uint64(1); i <= 2; i++ {
		if d := r.OnConflict(mkReq("x", i, int32(i), sched.Write, time.Second, time.Millisecond, 0)); !d.Enqueue {
			t.Fatalf("requester %d rejected below the threshold", i)
		}
	}
	if d := r.OnConflict(mkReq("x", 3, 3, sched.Write, time.Hour, time.Millisecond, 0)); d.Enqueue {
		t.Fatal("third requester queued: contention 3 reached the threshold")
	}
}

func TestRTSDuplicateRemoved(t *testing.T) {
	r := New(Options{CLThreshold: 10})
	req := mkReq("x", 1, 1, sched.Write, time.Second, 2*time.Millisecond, 0)
	if d := r.OnConflict(req); !d.Enqueue {
		t.Fatal("first enqueue failed")
	}
	// Same transaction retries (timed out): must not occupy two slots, and
	// bk must not double-count.
	d := r.OnConflict(req)
	if !d.Enqueue {
		t.Fatal("retry enqueue failed")
	}
	if r.QueueLen("obj/x") != 1 {
		t.Fatalf("duplicate occupies %d slots", r.QueueLen("obj/x"))
	}
	if d.Backoff != 2*time.Millisecond {
		t.Fatalf("backoff %v double-counted", d.Backoff)
	}
}

// On release, a write requester at the head is handed the object alone.
func TestRTSReleaseWriteHead(t *testing.T) {
	r := New(Options{CLThreshold: 10})
	r.OnConflict(mkReq("x", 1, 1, sched.Write, time.Second, time.Millisecond, 0))
	r.OnConflict(mkReq("x", 2, 2, sched.Write, time.Second, time.Millisecond, 0))
	out := r.OnRelease("obj/x")
	if len(out) != 1 || out[0].TxID != 1 {
		t.Fatalf("OnRelease = %+v", out)
	}
	if r.QueueLen("obj/x") != 1 {
		t.Fatalf("queue length %d after pop", r.QueueLen("obj/x"))
	}
}

// When a read heads the queue, every queued read is released at once
// (paper: "o1 … will simultaneously be sent to T4, T5 and T6, increasing
// the concurrency of the read transactions").
func TestRTSReleaseReadBroadcast(t *testing.T) {
	r := New(Options{CLThreshold: 10})
	r.OnConflict(mkReq("x", 1, 1, sched.Read, time.Second, time.Millisecond, 0))
	r.OnConflict(mkReq("x", 2, 2, sched.Write, time.Second, time.Millisecond, 0))
	r.OnConflict(mkReq("x", 3, 3, sched.Read, time.Second, time.Millisecond, 0))
	out := r.OnRelease("obj/x")
	if len(out) != 2 {
		t.Fatalf("OnRelease = %+v, want both reads", out)
	}
	for _, q := range out {
		if q.Mode != sched.Read {
			t.Fatalf("non-read popped: %+v", q)
		}
	}
	// The write stays queued and pops next.
	next := r.OnRelease("obj/x")
	if len(next) != 1 || next[0].TxID != 2 {
		t.Fatalf("next pop = %+v", next)
	}
	if got := r.OnRelease("obj/x"); got != nil {
		t.Fatalf("empty queue popped %+v", got)
	}
}

func TestRTSExtractAdoptQueue(t *testing.T) {
	r := New(Options{CLThreshold: 10})
	r.OnConflict(mkReq("x", 1, 1, sched.Write, time.Second, time.Millisecond, 0))
	r.OnConflict(mkReq("x", 2, 2, sched.Write, time.Second, time.Millisecond, 0))
	q := r.ExtractQueue("obj/x")
	if len(q) != 2 || q[0].TxID != 1 || q[1].TxID != 2 {
		t.Fatalf("extracted %+v", q)
	}
	if r.QueueLen("obj/x") != 0 {
		t.Fatal("queue not removed on extract")
	}
	if got := r.ExtractQueue("obj/x"); got != nil {
		t.Fatalf("second extract = %+v", got)
	}

	// Adopt at the new owner: adopted entries go ahead of local ones.
	r2 := New(Options{CLThreshold: 10})
	r2.OnConflict(mkReq("x", 9, 9, sched.Write, time.Second, time.Millisecond, 0))
	r2.AdoptQueue("obj/x", q)
	if r2.QueueLen("obj/x") != 3 {
		t.Fatalf("adopted queue length %d", r2.QueueLen("obj/x"))
	}
	out := r2.OnRelease("obj/x")
	if len(out) != 1 || out[0].TxID != 1 {
		t.Fatalf("adopted head = %+v, want TxID 1", out)
	}
	r2.AdoptQueue("obj/x", nil) // no-op
}

func TestRTSAdaptiveThresholdWiring(t *testing.T) {
	r := New(Options{CLThreshold: 4, Adaptive: true, AdaptBatch: 2})
	before := r.Threshold()
	r.Feedback(true)
	r.Feedback(true)
	if r.Threshold() == before {
		t.Fatal("adaptive threshold did not move after a full batch")
	}
	// Fixed-threshold RTS ignores feedback.
	rf := New(Options{CLThreshold: 4})
	rf.Feedback(true)
	rf.Feedback(true)
	if rf.Threshold() != 4 {
		t.Fatal("fixed threshold moved")
	}
}

func TestRTSRetryDelay(t *testing.T) {
	r := New(Options{})
	if d := r.RetryDelay(5, "p"); d != 0 {
		t.Fatalf("default retry delay %v", d)
	}
}

func TestRTSObserveRequestCounts(t *testing.T) {
	r := New(Options{CLWindow: time.Hour})
	if cl := r.ObserveRequest("a", 1); cl != 1 {
		t.Fatalf("first observe = %d", cl)
	}
	if cl := r.ObserveRequest("a", 2); cl != 2 {
		t.Fatalf("second observe = %d", cl)
	}
}

// TestRTSKeepsNoEmptyList: RTS keeps a requester list only while it has
// entries. A denied conflict, a retry whose denial drops its own earlier
// slot, a release that pops the last entry and an extraction each leave no
// list behind, so the lists QueueDepth walks are the queued objects only.
func TestRTSKeepsNoEmptyList(t *testing.T) {
	r := New(Options{CLThreshold: 3})
	for i := 0; i < 100; i++ {
		// No time elapsed: never worth queueing.
		if r.OnConflict(mkReq(strconv.Itoa(i), uint64(i), 1, sched.Write, 0, time.Millisecond, 0)).Enqueue {
			t.Fatal("a request with no elapsed time was enqueued")
		}
	}
	if n := len(r.lists); n != 0 {
		t.Fatalf("%d lists after 100 denials, want 0", n)
	}

	queued := mkReq("dup", 7, 1, sched.Write, time.Second, time.Millisecond, 0)
	if !r.OnConflict(queued).Enqueue {
		t.Fatal("first request not enqueued")
	}
	retry := queued
	retry.Elapsed = 0
	if r.OnConflict(retry).Enqueue {
		t.Fatal("retry with no elapsed time was enqueued")
	}
	if !r.OnConflict(mkReq("pop", 8, 1, sched.Write, time.Second, time.Millisecond, 0)).Enqueue ||
		!r.OnConflict(mkReq("extract", 9, 1, sched.Write, time.Second, time.Millisecond, 0)).Enqueue {
		t.Fatal("request not enqueued")
	}
	if got := r.OnRelease("obj/pop"); len(got) != 1 {
		t.Fatalf("release popped %d requesters, want 1", len(got))
	}
	if got := r.ExtractQueue("obj/extract"); len(got) != 1 {
		t.Fatalf("extraction took %d requesters, want 1", len(got))
	}
	r.AdoptQueue("obj/adopt", nil)
	if n := len(r.lists); n != 0 || r.QueueDepth() != 0 {
		t.Fatalf("%d lists, queue depth %d; want 0 and 0", n, r.QueueDepth())
	}
}
