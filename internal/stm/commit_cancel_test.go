package stm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dstm/internal/transport"
)

// TestCancelledCommitReleasesLocks reproduces the orphaned-lock hazard: a
// transaction whose context dies while it is acquiring its write set must
// still release the locks it already took (on a detached context).
// Before the fix, a harness shutdown mid-commit left objects locked
// forever and every later reader was denied indefinitely.
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

	// Black-hole the REPLIES to locking retrieves: the owner locks "a" and
	// "b", but the committer never learns it and stalls until its context
	// dies. Its conservative release (issued on a detached context) must
	// then free the whole batch.
	var mu sync.Mutex
	type call struct {
		caller transport.NodeID
		corr   uint64
	}
	locking := map[call]bool{}
	net.SetInterceptor(func(m *transport.Message) bool {
		mu.Lock()
		defer mu.Unlock()
		if q, ok := m.Payload.(retrieveReq); ok && q.LockID != 0 {
			locking[call{m.From, m.Corr}] = true
		}
		return !(m.IsReply && locking[call{m.To, m.Corr}])
	})

	txCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
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

	// The locks on "a" and "b" must have been released despite the dead
	// context.
	deadline := time.Now().Add(2 * time.Second)
	for tc.rts[0].Store().Locked("a") || tc.rts[0].Store().Locked("b") {
		if time.Now().After(deadline) {
			t.Fatal("locks orphaned after cancelled commit")
		}
		time.Sleep(time.Millisecond)
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
