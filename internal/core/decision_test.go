package core

import (
	"testing"
	"time"

	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/trace"
)

// TestRTSDecisionTable pins Algorithm 3's predicate exactly at its two
// boundaries. Enqueue requires BOTH of
//
//	bk(queue) <  Elapsed          (strict: equal elapsed aborts)
//	contention <  threshold       (contention AT the threshold aborts,
//	                               where contention = len+1 + MyCL)
//
// Each case seeds a queue via prior enqueues, then asserts the probe
// request's verdict and backoff.
func TestRTSDecisionTable(t *testing.T) {
	// Each seed entry occupies one queue slot with a known remaining time,
	// so bk(queue) = sum(seedRemain) when the probe arrives.
	type seed struct {
		remain time.Duration
	}
	cases := []struct {
		name      string
		threshold int
		seeds     []seed
		elapsed   time.Duration
		myCL      int
		enqueue   bool
		backoff   time.Duration // checked only when enqueue
	}{
		{
			name:      "empty queue, long elapsed: enqueue",
			threshold: 4,
			elapsed:   time.Millisecond,
			enqueue:   true,
			backoff:   time.Millisecond, // probe's own remaining (below)
		},
		{
			name:      "elapsed equal to bk: strict comparison aborts",
			threshold: 10,
			seeds:     []seed{{5 * time.Millisecond}},
			elapsed:   5 * time.Millisecond,
			enqueue:   false,
		},
		{
			name:      "elapsed one tick above bk: enqueue",
			threshold: 10,
			seeds:     []seed{{5 * time.Millisecond}},
			elapsed:   5*time.Millisecond + time.Nanosecond,
			enqueue:   true,
			backoff:   5*time.Millisecond + time.Millisecond,
		},
		{
			// The threshold caps the queue: with no remote CL it holds at
			// most threshold-1 requesters (paper §III-C).
			name:      "queue one below cap: enqueue",
			threshold: 4,
			seeds:     []seed{{time.Microsecond}, {time.Microsecond}},
			elapsed:   time.Second,
			enqueue:   true,
			backoff:   2*time.Microsecond + time.Millisecond,
		},
		{
			name:      "queue at cap: abort",
			threshold: 4,
			seeds:     []seed{{time.Microsecond}, {time.Microsecond}, {time.Microsecond}},
			elapsed:   time.Second,
			enqueue:   false,
		},
		{
			name:      "contention one below threshold: enqueue",
			threshold: 3,
			seeds:     []seed{{time.Microsecond}}, // contention = 1+1+0 = 2
			elapsed:   time.Second,
			enqueue:   true,
			backoff:   time.Microsecond + time.Millisecond,
		},
		{
			name:      "contention at threshold: abort",
			threshold: 3,
			seeds:     []seed{{time.Microsecond}, {time.Microsecond}}, // 2+1+0 = 3
			elapsed:   time.Second,
			enqueue:   false,
		},
		{
			name:      "remote CL pushes contention to threshold: abort",
			threshold: 3,
			seeds:     nil, // contention = 0+1+2 = 3
			myCL:      2,
			elapsed:   time.Second,
			enqueue:   false,
		},
		{
			name:      "remote CL one below threshold: enqueue",
			threshold: 3,
			myCL:      1, // contention = 0+1+1 = 2
			elapsed:   time.Second,
			enqueue:   true,
			backoff:   time.Millisecond,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := New(Options{CLThreshold: tc.threshold})
			for i, s := range tc.seeds {
				// Seeds use a huge Elapsed and a generous threshold-safe
				// MyCL of 0 so they always enqueue.
				d := r.OnConflict(mkReq("x", uint64(100+i), int32(i), sched.Write, time.Hour, s.remain, 0))
				if !d.Enqueue {
					t.Fatalf("seed %d was denied; fix the test setup", i)
				}
			}
			probe := mkReq("x", 1, 99, sched.Write, tc.elapsed, time.Millisecond, tc.myCL)
			d := r.OnConflict(probe)
			if d.Enqueue != tc.enqueue {
				t.Fatalf("enqueue = %v, want %v (decision %+v)", d.Enqueue, tc.enqueue, d)
			}
			if tc.enqueue && d.Backoff != tc.backoff {
				t.Fatalf("backoff = %v, want %v", d.Backoff, tc.backoff)
			}
			wantLen := len(tc.seeds)
			if tc.enqueue {
				wantLen++
			}
			if got := r.QueueLen("obj/x"); got != wantLen {
				t.Fatalf("queue length %d, want %d", got, wantLen)
			}
		})
	}
}

// TestRTSBackoffAccumulationOrder checks Algorithm 3's bk accumulation:
// each enqueued requester's backoff is the sum of the expected remaining
// times of everyone ahead of it plus its own.
func TestRTSBackoffAccumulationOrder(t *testing.T) {
	r := New(Options{CLThreshold: 100})
	remains := []time.Duration{3 * time.Millisecond, 5 * time.Millisecond, 7 * time.Millisecond}
	var want time.Duration
	for i, rem := range remains {
		want += rem
		d := r.OnConflict(mkReq("x", uint64(i+1), int32(i), sched.Write, time.Hour, rem, 0))
		if !d.Enqueue {
			t.Fatalf("requester %d denied", i)
		}
		if d.Backoff != want {
			t.Fatalf("requester %d backoff %v, want cumulative %v", i, d.Backoff, want)
		}
	}
}

// TestRTSDecisionTraceEvents asserts the scheduler's queue-transition
// events carry the fields the protocol checker keys on: enqueue with mode
// and post-add length, deny with the computed contention, dup-dequeue only
// when an entry was actually removed.
func TestRTSDecisionTraceEvents(t *testing.T) {
	rec := trace.NewRecorder(0, 64, func() uint64 { return 0 })
	r := New(Options{CLThreshold: 3})
	r.SetTracer(rec)

	// Enqueue, then the same (node, tx) retries: dup-dequeue + re-enqueue.
	r.OnConflict(mkReq("x", 1, 1, sched.Write, time.Hour, time.Millisecond, 0))
	r.OnConflict(mkReq("x", 1, 1, sched.Write, time.Hour, time.Millisecond, 0))
	// High remote CL: denied.
	r.OnConflict(mkReq("x", 2, 2, sched.Read, time.Hour, time.Millisecond, 5))

	evs := rec.Events()
	var types []trace.EventType
	for _, e := range evs {
		types = append(types, e.Type)
	}
	want := []trace.EventType{trace.EvEnqueue, trace.EvDequeue, trace.EvEnqueue, trace.EvDeny}
	if len(types) != len(want) {
		t.Fatalf("event types %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event %d is %v, want %v (all: %v)", i, types[i], want[i], types)
		}
	}
	if evs[0].Detail != "write" || evs[0].A != 1 {
		t.Fatalf("enqueue event fields: %+v", evs[0])
	}
	if evs[1].Detail != "dup" {
		t.Fatalf("dup dequeue detail %q", evs[1].Detail)
	}
	deny := evs[3]
	if deny.Detail != "read" || deny.A != 1+1+5 {
		t.Fatalf("deny event should carry contention 7: %+v", deny)
	}
	if oid := object.ID("obj/x"); deny.Oid != oid {
		t.Fatalf("deny oid %q", deny.Oid)
	}
}

// TestRTSReleaseHeadModeTable pins Algorithm 4's hand-off for each head
// mode: a write head goes out alone; a read head releases every queued
// read at once, leaving the writes queued in order.
func TestRTSReleaseHeadModeTable(t *testing.T) {
	cases := []struct {
		name      string
		modes     []sched.Mode // enqueue order
		wantFirst []uint64     // txids of the first pop
		wantNext  []uint64     // txids of the second pop
	}{
		{
			name:      "write head pops alone",
			modes:     []sched.Mode{sched.Write, sched.Write, sched.Read},
			wantFirst: []uint64{1},
			wantNext:  []uint64{2},
		},
		{
			name:      "read head broadcasts all reads",
			modes:     []sched.Mode{sched.Read, sched.Write, sched.Read},
			wantFirst: []uint64{1, 3},
			wantNext:  []uint64{2},
		},
		{
			name:      "all reads drain in one pop",
			modes:     []sched.Mode{sched.Read, sched.Read},
			wantFirst: []uint64{1, 2},
			wantNext:  nil,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := New(Options{CLThreshold: 100})
			for i, m := range tc.modes {
				if d := r.OnConflict(mkReq("x", uint64(i+1), int32(i), m, time.Hour, time.Millisecond, 0)); !d.Enqueue {
					t.Fatalf("seed %d denied", i)
				}
			}
			check := func(got []sched.Request, want []uint64) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("popped %d requests, want %d (%v)", len(got), len(want), got)
				}
				for i, w := range want {
					if got[i].TxID != w {
						t.Fatalf("pop[%d] = tx %d, want %d", i, got[i].TxID, w)
					}
				}
			}
			check(r.OnRelease("obj/x"), tc.wantFirst)
			check(r.OnRelease("obj/x"), tc.wantNext)
		})
	}
}
