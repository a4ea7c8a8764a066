package stm

import (
	"context"
	"testing"
	"time"

	"dstm/internal/core"
	"dstm/internal/object"
	"dstm/internal/sched"
)

// TestLeaseExpiryFreesWedgedLock simulates a committer that crashed after
// commit-locking an object: the lock is taken directly in the owner's store
// by a transaction ID that will never unlock. Without the lease reaper every
// writer would abort on LockBusy / retrieveDenied forever; with it, the lock
// expires, the dead holder is fenced, and the writer commits.
func TestLeaseExpiryFreesWedgedLock(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	rt0 := tc.rts[0]
	ctx := context.Background()

	if err := rt0.CreateRoot(ctx, "wedged", &box{N: 1}); err != nil {
		t.Fatal(err)
	}

	// Wedge: a "crashed" committer holds the commit lock and will never
	// release it.
	const deadTx = 0xdead
	c := rt0.Store().State("wedged")
	ver := c.Ver
	if !c.Owned {
		t.Fatal("object not owned by creator")
	}
	if got := lockAt(rt0.Store(), "wedged", deadTx, ver); got != object.LockOK {
		t.Fatalf("setup lock: %v", got)
	}

	stop := rt0.StartLeaseExpiry(50 * time.Millisecond)
	defer stop()

	// A writer from another node must eventually get through. Give it a
	// deadline well past the lease so only a true wedge fails the test.
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	err := tc.rts[1].Atomic(wctx, "writer", func(tx *Txn) error {
		v, err := tx.Read(wctx, "wedged")
		if err != nil {
			return err
		}
		return tx.Write(wctx, "wedged", &box{N: v.(*box).N + 1})
	})
	if err != nil {
		t.Fatalf("writer never got past the wedged lock: %v", err)
	}

	// The reaper counts an expiry just after it frees the lock, so the
	// writer can commit before the count lands: wait for it.
	waitFor(t, func() bool { return rt0.Metrics().Snapshot().LeaseExpiries > 0 })
	// The dead holder must not be able to resurrect its lock afterwards.
	if rt0.Store().Owns("wedged") {
		if got := lockAt(rt0.Store(), "wedged", deadTx, ver); got == object.LockOK {
			t.Fatal("expired holder re-acquired the lock")
		}
	}
}

// TestLeaseExpiryServesQueuedRequesters wedges an object under the RTS
// scheduler so an incoming writer is *enqueued* (not aborted): the reaper
// must both free the lock and push the object to the parked requester, or
// the queue would stall until its backoff timeout.
func TestLeaseExpiryServesQueuedRequesters(t *testing.T) {
	tc := newTestCluster(t, 2, nil, func() sched.Policy { return core.New(core.Options{CLThreshold: 5}) })
	rt0 := tc.rts[0]
	ctx := context.Background()

	if err := rt0.CreateRoot(ctx, "queued", &box{N: 10}); err != nil {
		t.Fatal(err)
	}
	const deadTx = 0xdead
	ver := rt0.Store().State("queued").Ver
	if got := lockAt(rt0.Store(), "queued", deadTx, ver); got != object.LockOK {
		t.Fatalf("setup lock: %v", got)
	}

	stop := rt0.StartLeaseExpiry(50 * time.Millisecond)
	defer stop()

	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := tc.rts[1].Atomic(wctx, "writer", func(tx *Txn) error {
		v, err := tx.Read(wctx, "queued")
		if err != nil {
			return err
		}
		return tx.Write(wctx, "queued", &box{N: v.(*box).N + 1})
	}); err != nil {
		t.Fatalf("queued writer never served after lease expiry: %v", err)
	}
}

// TestLeaseExpiryStopIdempotent checks the reaper's stop function tolerates
// repeated calls and that a stopped reaper expires nothing further.
func TestLeaseExpiryStopIdempotent(t *testing.T) {
	tc := newTestCluster(t, 1, nil, nil)
	rt := tc.rts[0]
	stop := rt.StartLeaseExpiry(time.Millisecond)
	stop()
	stop() // must not panic

	if err := rt.CreateRoot(context.Background(), "x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	ver := rt.Store().State("x").Ver
	if got := lockAt(rt.Store(), "x", 99, ver); got != object.LockOK {
		t.Fatalf("lock: %v", got)
	}
	time.Sleep(20 * time.Millisecond)
	if !isLocked(rt.Store(), "x") {
		t.Fatal("stopped reaper still expired a lock")
	}
}

// TestCommitMigrationOfAGoneObjectFails: once a commit has taken an object
// away from its owner, a commit message claiming it again — from another
// transaction or from a new call of the same one — is refused. A copy of the
// first message is never served again (the endpoint's floor), so no
// migration has to be replayable.
func TestCommitMigrationOfAGoneObjectFails(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	rt0, rt1 := tc.rts[0], tc.rts[1]
	ctx := context.Background()

	if err := rt0.CreateRoot(ctx, "mig", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	const txid = 77
	ver := rt0.Store().State("mig").Ver
	if got := lockAt(rt0.Store(), "mig", txid, ver); got != object.LockOK {
		t.Fatalf("lock: %v", got)
	}

	req := commitObjBatchReq{TxID: txid, NewOwner: 1, Oids: []object.ID{"mig"}, Moved: []object.ID{"mig"}}
	// migrate sends the one-entry batch and returns that entry's error text.
	migrate := func(req commitObjBatchReq) string {
		t.Helper()
		body, err := rt1.ep.Call(ctx, 0, KindCommitObjectBatch, req)
		if err != nil {
			t.Fatalf("migration call: %v", err)
		}
		results := body.(commitObjBatchResp).Results
		if len(results) != 1 {
			t.Fatalf("results = %+v, want one entry", results)
		}
		return results[0].Err
	}
	// First migration removes the object from node 0.
	if e := migrate(req); e != "" {
		t.Fatalf("migration: %s", e)
	}
	if rt0.Store().Owns("mig") {
		t.Fatal("object still owned by old owner after migration")
	}
	// A new call of the same transaction finds the object gone, and so does
	// a different transaction claiming it.
	if e := migrate(req); e == "" {
		t.Fatal("a second migration call of a gone object succeeded")
	}
	bad := req
	bad.TxID = 78
	if e := migrate(bad); e == "" {
		t.Fatal("foreign-tx migration of a gone object succeeded")
	}
}
