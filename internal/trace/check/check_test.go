package check

import (
	"testing"

	"dstm/internal/trace"
	"dstm/internal/transport"
)

// golden builds a clean protocol trace exercising every checked invariant:
// a commit-locked object with enqueued requesters, a write-head hand-off, a
// read broadcast, a park resolved by push, a park resolved by timeout (with
// the matching queue-timeout abort), a forwarding step, and a correlated
// RPC exchange.
func golden() []trace.Event {
	seq := map[transport.NodeID]uint64{}
	ev := func(node transport.NodeID, clock uint64, typ trace.EventType, mut func(*trace.Event)) trace.Event {
		e := trace.Event{Node: node, Seq: seq[node], Clock: clock, Type: typ}
		seq[node]++
		if mut != nil {
			mut(&e)
		}
		return e
	}
	return []trace.Event{
		// Node 1 begins tx 0xA and asks node 0 for obj/x (correlated RPC).
		ev(1, 1, trace.EvTxBegin, func(e *trace.Event) { e.Tx = 0xA; e.A = 1 }),
		ev(1, 1, trace.EvMsgSend, func(e *trace.Event) { e.Peer = 0; e.Corr = 7; e.A = 10 }),
		ev(0, 1, trace.EvMsgRecv, func(e *trace.Event) { e.Peer = 1; e.Corr = 7; e.A = 10 }),

		// Node 0: tx 0xB holds obj/x's commit lock; 0xA and two readers queue.
		ev(0, 2, trace.EvLockAcquire, func(e *trace.Event) { e.Tx = 0xB; e.Oid = "obj/x" }),
		ev(0, 2, trace.EvEnqueue, func(e *trace.Event) { e.Tx = 0xA; e.Oid = "obj/x"; e.Detail = "write"; e.A = 1; e.B = 1e6 }),
		ev(0, 2, trace.EvMsgSend, func(e *trace.Event) { e.Peer = 1; e.Corr = 7; e.Detail = "reply"; e.A = 10 }),
		ev(1, 2, trace.EvMsgRecv, func(e *trace.Event) { e.Peer = 0; e.Corr = 7; e.Detail = "reply"; e.A = 10 }),
		ev(1, 2, trace.EvPark, func(e *trace.Event) { e.Tx = 0xA; e.Oid = "obj/x"; e.A = 1e6 }),
		ev(0, 2, trace.EvEnqueue, func(e *trace.Event) { e.Tx = 0xC; e.Oid = "obj/x"; e.Detail = "read"; e.A = 2 }),
		ev(0, 2, trace.EvEnqueue, func(e *trace.Event) { e.Tx = 0xD; e.Oid = "obj/x"; e.Detail = "read"; e.A = 3 }),

		// 0xB commits: lock released, write head 0xA handed off alone.
		ev(0, 3, trace.EvLockRelease, func(e *trace.Event) { e.Tx = 0xB; e.Oid = "obj/x"; e.Detail = "commit" }),
		ev(0, 3, trace.EvHandOff, func(e *trace.Event) { e.Tx = 0xA; e.Oid = "obj/x"; e.Detail = "write"; e.A = 1 }),
		ev(1, 3, trace.EvPushRecv, func(e *trace.Event) { e.Tx = 0xA; e.Oid = "obj/x" }),
		ev(1, 3, trace.EvForward, func(e *trace.Event) { e.Tx = 0xA; e.A = 1; e.B = 3 }),
		ev(1, 4, trace.EvTxCommit, func(e *trace.Event) { e.Tx = 0xA }),

		// Next release: read broadcast pops both queued readers as one group.
		ev(0, 4, trace.EvLockAcquire, func(e *trace.Event) { e.Tx = 0xE; e.Oid = "obj/x" }),
		ev(0, 5, trace.EvLockRelease, func(e *trace.Event) { e.Tx = 0xE; e.Oid = "obj/x"; e.Detail = "unlock" }),
		ev(0, 5, trace.EvHandOff, func(e *trace.Event) { e.Tx = 0xC; e.Oid = "obj/x"; e.Detail = "read"; e.A = 2 }),
		ev(0, 5, trace.EvHandOff, func(e *trace.Event) { e.Tx = 0xD; e.Oid = "obj/x"; e.Detail = "read"; e.A = 2 }),

		// A park that times out, followed by the mandated queue-timeout abort.
		ev(2, 7, trace.EvTxBegin, func(e *trace.Event) { e.Tx = 0x1B; e.A = 1 }),
		ev(2, 7, trace.EvPark, func(e *trace.Event) { e.Tx = 0x1B; e.Oid = "obj/y"; e.A = 5e5 }),
		ev(2, 8, trace.EvParkTimeout, func(e *trace.Event) { e.Tx = 0x1B; e.Oid = "obj/y" }),
		ev(2, 8, trace.EvTxAbort, func(e *trace.Event) { e.Tx = 0x1B; e.Detail = "queue-timeout" }),

		// An aborted commit attempt whose owner-grouped batch locked two
		// objects under the attempt's lock identity 0x2A1 (EvTxBegin.B);
		// both locks are freed before the abort, so batch atomicity holds.
		ev(2, 9, trace.EvTxBegin, func(e *trace.Event) { e.Tx = 0x2A; e.A = 1; e.B = 0x2A1 }),
		ev(0, 9, trace.EvLockAcquire, func(e *trace.Event) { e.Tx = 0x2A1; e.Oid = "obj/p" }),
		ev(0, 9, trace.EvLockAcquire, func(e *trace.Event) { e.Tx = 0x2A1; e.Oid = "obj/q" }),
		ev(0, 10, trace.EvLockRelease, func(e *trace.Event) { e.Tx = 0x2A1; e.Oid = "obj/p"; e.Detail = "unlock" }),
		ev(0, 10, trace.EvLockRelease, func(e *trace.Event) { e.Tx = 0x2A1; e.Oid = "obj/q"; e.Detail = "unlock" }),
		ev(2, 10, trace.EvTxAbort, func(e *trace.Event) { e.Tx = 0x2A; e.Detail = "lock-failed" }),
	}
}

func runClean(t *testing.T) []trace.Event {
	t.Helper()
	evs := golden()
	rep := Run(evs, Options{})
	if err := rep.Err(); err != nil {
		t.Fatalf("golden trace must be clean: %v", err)
	}
	if rep.Events != len(evs) {
		t.Fatalf("replayed %d events, want %d", rep.Events, len(evs))
	}
	return evs
}

// mutate applies f to a copy of the golden trace.
func mutate(t *testing.T, f func(evs []trace.Event) []trace.Event) []trace.Event {
	t.Helper()
	evs := append([]trace.Event(nil), runClean(t)...)
	return f(evs)
}

// expectViolation asserts the checker flags the corrupted trace with the
// named invariant — proving the oracle can actually fail.
func expectViolation(t *testing.T, evs []trace.Event, invariant string) {
	t.Helper()
	rep := Run(evs, Options{})
	if len(rep.Violations) == 0 {
		t.Fatalf("corrupted trace passed the checker")
	}
	for _, v := range rep.Violations {
		if v.Invariant == invariant {
			return
		}
	}
	t.Fatalf("no %q violation; got %v", invariant, rep.Violations)
}

func TestOracleAcceptsGolden(t *testing.T) { runClean(t) }

func TestOracleFlagsDoubleLockGrant(t *testing.T) {
	evs := mutate(t, func(evs []trace.Event) []trace.Event {
		// Grant obj/x to tx 0x99 while 0xB still holds it.
		bad := trace.Event{Node: 0, Seq: 1000, Clock: 2, Type: trace.EvLockAcquire, Tx: 0x99, Oid: "obj/x"}
		out := append([]trace.Event(nil), evs[:5]...)
		out = append(out, bad)
		return append(out, evs[5:]...)
	})
	expectViolation(t, evs, "lock-exclusion")
}

func TestOracleFlagsReleaseByNonHolder(t *testing.T) {
	evs := mutate(t, func(evs []trace.Event) []trace.Event {
		for i, e := range evs {
			if e.Type == trace.EvLockRelease && e.Tx == 0xB {
				evs[i].Tx = 0x99
			}
		}
		return evs
	})
	expectViolation(t, evs, "lock-exclusion")
}

func TestOracleFlagsBackwardsForward(t *testing.T) {
	evs := mutate(t, func(evs []trace.Event) []trace.Event {
		for i, e := range evs {
			if e.Type == trace.EvForward {
				evs[i].A, evs[i].B = 5, 2 // start clock moves backwards
			}
		}
		return evs
	})
	expectViolation(t, evs, "forward-monotonic")
}

func TestOracleFlagsForwardBelowEarlierForward(t *testing.T) {
	evs := mutate(t, func(evs []trace.Event) []trace.Event {
		// A second forward for tx 0xA that lands below the first (1 -> 3).
		bad := trace.Event{Node: 1, Seq: 1000, Clock: 5, Type: trace.EvForward, Tx: 0xA, A: 2, B: 2}
		return append(evs, bad)
	})
	expectViolation(t, evs, "forward-monotonic")
}

func TestOracleFlagsPushToNonHead(t *testing.T) {
	evs := mutate(t, func(evs []trace.Event) []trace.Event {
		// The write-head hand-off goes to queued reader 0xC instead of the
		// head write requester 0xA.
		for i, e := range evs {
			if e.Type == trace.EvHandOff && e.Tx == 0xA {
				evs[i].Tx = 0xC
				evs[i].Detail = "read"
			}
		}
		return evs
	})
	expectViolation(t, evs, "handoff-head")
}

func TestOracleFlagsPartialReadBroadcast(t *testing.T) {
	evs := mutate(t, func(evs []trace.Event) []trace.Event {
		// Drop reader 0xD from the broadcast group: Algorithm 4 requires
		// every queued read be released together.
		out := evs[:0]
		for _, e := range evs {
			if e.Type == trace.EvHandOff && e.Tx == 0xD {
				continue
			}
			out = append(out, e)
		}
		return out
	})
	expectViolation(t, evs, "handoff-head")
}

func TestOracleFlagsCommitAfterParkTimeout(t *testing.T) {
	evs := mutate(t, func(evs []trace.Event) []trace.Event {
		// The timed-out transaction commits instead of aborting.
		for i, e := range evs {
			if e.Type == trace.EvTxAbort && e.Tx == 0x1B {
				evs[i].Type = trace.EvTxCommit
				evs[i].Detail = ""
			}
		}
		return evs
	})
	expectViolation(t, evs, "park-closure")
}

func TestOracleFlagsWrongAbortCauseAfterTimeout(t *testing.T) {
	evs := mutate(t, func(evs []trace.Event) []trace.Event {
		for i, e := range evs {
			if e.Type == trace.EvTxAbort && e.Tx == 0x1B {
				evs[i].Detail = "denied"
			}
		}
		return evs
	})
	expectViolation(t, evs, "park-closure")
}

func TestOracleFlagsUnsolicitedReply(t *testing.T) {
	evs := mutate(t, func(evs []trace.Event) []trace.Event {
		bad := trace.Event{Node: 2, Seq: 1000, Clock: 9, Type: trace.EvMsgRecv,
			Peer: 0, Corr: 999, Detail: "reply", A: 10}
		return append(evs, bad)
	})
	expectViolation(t, evs, "reply-correlation")
}

func TestOracleFlagsPartialBatchAfterAbort(t *testing.T) {
	evs := mutate(t, func(evs []trace.Event) []trace.Event {
		// Drop obj/q's release: the aborted attempt leaves half its
		// (all-or-nothing) acquire batch locked at trace end.
		out := evs[:0]
		for _, e := range evs {
			if e.Type == trace.EvLockRelease && e.Tx == 0x2A1 && e.Oid == "obj/q" {
				continue
			}
			out = append(out, e)
		}
		return out
	})
	expectViolation(t, evs, "batch-atomicity")
}

func TestOracleFlagsLeakFromSupersededAttempt(t *testing.T) {
	// No explicit abort event this time: the retry's EvTxBegin (same root,
	// fresh lock identity) proves the first attempt ended without
	// committing, so its leaked lock must still be flagged.
	evs := mutate(t, func(evs []trace.Event) []trace.Event {
		out := make([]trace.Event, 0, len(evs))
		for _, e := range evs {
			if e.Type == trace.EvLockRelease && e.Tx == 0x2A1 && e.Oid == "obj/q" {
				continue
			}
			if e.Type == trace.EvTxAbort && e.Tx == 0x2A {
				e = trace.Event{Node: 2, Seq: 1000, Clock: e.Clock, Type: trace.EvTxBegin, Tx: 0x2A, A: 2, B: 0x2A2}
			}
			out = append(out, e)
		}
		return out
	})
	expectViolation(t, evs, "batch-atomicity")
}

func TestOracleAcceptsLockHeldByLiveAttempt(t *testing.T) {
	// A lock still held at trace end by an attempt that never aborted (the
	// run window simply closed mid-commit) is legal.
	evs := mutate(t, func(evs []trace.Event) []trace.Event {
		return append(evs,
			trace.Event{Node: 2, Seq: 1001, Clock: 11, Type: trace.EvTxBegin, Tx: 0x3A, A: 1, B: 0x3A1},
			trace.Event{Node: 0, Seq: 1001, Clock: 11, Type: trace.EvLockAcquire, Tx: 0x3A1, Oid: "obj/p"},
		)
	})
	if err := Run(evs, Options{}).Err(); err != nil {
		t.Fatalf("mid-commit lock at trace end must pass: %v", err)
	}
}

func TestOracleSkipsStatefulChecksWhenTruncated(t *testing.T) {
	evs := mutate(t, func(evs []trace.Event) []trace.Event {
		bad := trace.Event{Node: 0, Seq: 1000, Clock: 2, Type: trace.EvLockAcquire, Tx: 0x99, Oid: "obj/x"}
		return append(evs, bad)
	})
	rep := Run(evs, Options{Truncated: true})
	if err := rep.Err(); err != nil {
		t.Fatalf("truncated run must skip stateful checks: %v", err)
	}
	if len(rep.Skipped) == 0 {
		t.Fatal("truncated run did not report skipped invariants")
	}
	// The stateless forwarding check still fires on truncated traces.
	evs2 := mutate(t, func(evs []trace.Event) []trace.Event {
		for i, e := range evs {
			if e.Type == trace.EvForward {
				evs[i].A, evs[i].B = 5, 2
			}
		}
		return evs
	})
	rep2 := Run(evs2, Options{Truncated: true})
	if rep2.Err() == nil {
		t.Fatal("backwards forward passed under truncation")
	}
}

func TestViolationCap(t *testing.T) {
	var evs []trace.Event
	for i := 0; i < 200; i++ {
		evs = append(evs, trace.Event{Node: 0, Seq: uint64(i), Clock: 1,
			Type: trace.EvLockRelease, Tx: uint64(i + 1), Oid: "obj/x", Detail: "unlock"})
	}
	rep := Run(evs, Options{MaxViolations: 5})
	if len(rep.Violations) != 5 {
		t.Fatalf("violations = %d, want capped at 5", len(rep.Violations))
	}
	if rep.Err() == nil {
		t.Fatal("capped report must still error")
	}
}
