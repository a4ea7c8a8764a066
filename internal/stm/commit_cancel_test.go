package stm

import (
	"context"
	"errors"
	"testing"
	"time"

	"dstm/internal/object"
	"dstm/internal/transport"
)

// TestCancelledCommitReleasesLocks: a transaction whose context dies while
// the reply to its locking retrieve is on the wire — the owner has locked
// "a" and "b" and handed them over — still installs them and releases them
// (on a detached context), so nothing is left locked and nothing is lost:
// the objects stay at the locker, unchanged, and the cluster is fully usable
// again.
func TestCancelledCommitReleasesLocks(t *testing.T) {
	net := transport.NewNetwork(transport.ZeroLatency{})
	defer net.Close()
	tc := &testCluster{net: net}
	for i := 0; i < 2; i++ {
		tc.rts = append(tc.rts, newRuntimeOn(net, i, 2))
	}

	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "a", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tc.rts[0].CreateRoot(ctx, "b", &box{N: 2}); err != nil {
		t.Fatal(err)
	}

	// Hold the replies to locking retrieves until the committer's context
	// has died.
	txCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	var lc lockCalls
	net.SetInterceptor(func(m *transport.Message) bool {
		if lc.isReply(m) {
			<-txCtx.Done()
		}
		return true
	})

	err := tc.rts[1].Atomic(txCtx, "w", func(tx *Txn) error {
		if err := tx.Write(txCtx, "a", &box{N: 10}); err != nil {
			return err
		}
		return tx.Write(txCtx, "b", &box{N: 20})
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	net.SetInterceptor(nil)

	// "a" and "b" are at node 1, released despite the dead context.
	for _, oid := range []object.ID{"a", "b"} {
		if !tc.rts[1].Store().State(oid).Owned || isLocked(tc.rts[1].Store(), oid) || readBox(t, tc.rts[1], oid) > 2 {
			t.Fatalf("%s is not at node 1, unlocked and unchanged, after the cancelled commit", oid)
		}
	}

	// And the cluster is fully usable again.
	err = tc.rts[0].Atomic(ctx, "w2", func(tx *Txn) error {
		if err := tx.Write(ctx, "a", &box{N: 100}); err != nil {
			return err
		}
		return tx.Write(ctx, "b", &box{N: 200})
	})
	if err != nil {
		t.Fatal(err)
	}
	var a, b int64
	err = tc.rts[1].Atomic(ctx, "r", func(tx *Txn) error {
		va, err := tx.Read(ctx, "a")
		if err != nil {
			return err
		}
		vb, err := tx.Read(ctx, "b")
		if err != nil {
			return err
		}
		a, b = va.(*box).N, vb.(*box).N
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != 100 || b != 200 {
		t.Fatalf("a=%d b=%d, want 100/200 (aborted tx leaked: %d/%d)", a, b, a, b)
	}
}
