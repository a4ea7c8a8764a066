package stm

import (
	"context"
	"sync/atomic"
	"testing"

	"dstm/internal/object"
	"dstm/internal/transport"
)

// These tests pin the rounds a nested write costs: one retrieve wave for an
// inner transaction that opens its access set first, an inner commit that is
// a forwarding step (no message while this node's clock has not moved, one
// validation wave when it has, and no second validation by the fetch that
// follows), and no message at all when every object is the node's own.

func bump(v object.Value) object.Value { v.(*box).N++; return v }

// TestInnerTransactionOpensItsAccessSetInOneWave: a transfer-shaped child —
// open {from, to}, then update both — sends one retrieve to each of the two
// remote owners, both in flight together, and the updates send none.
func TestInnerTransactionOpensItsAccessSetInOneWave(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"from": 1, "to": 2})
	var msgs kindCounter
	tc.net.SetInterceptor(holdRetrieves(t, 2, msgs.intercept))

	err := tc.rts[0].Atomic(ctx, "batch", func(tx *Txn) error {
		return tx.Atomic(ctx, "transfer", func(c *Txn) error {
			if _, err := c.ReadMany(ctx, []object.ID{"from", "to"}); err != nil {
				return err
			}
			if err := c.Update(ctx, "from", bump); err != nil {
				return err
			}
			return c.Update(ctx, "to", bump)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := msgs.count(KindRetrieve); got != 2 {
		t.Fatalf("%d retrieves, want 2: one per owner", got)
	}
	if got := msgs.count(KindCheckVersionBatch); got != 0 {
		t.Fatalf("%d validation messages with every clock at rest, want 0", got)
	}
	if from, to := readBox(t, tc.rts[0], "from"), readBox(t, tc.rts[0], "to"); from != 11 || to != 21 {
		t.Fatalf("from=%d to=%d, want 11/21", from, to)
	}
}

// TestInnerCommitIsAForwardingStep counts validation messages around two
// inner commits of one root on node 0, whose chain holds a, c (node 1) and b
// (node 2).
func TestInnerCommitIsAForwardingStep(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"a": 1, "b": 2, "c": 1, "d": 2, "z": 2})
	var msgs kindCounter
	tc.net.SetInterceptor(msgs.intercept)
	checks := func() int { return msgs.count(KindCheckVersionBatch) }

	err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
		// The node's clock equals the transaction's start: the inner commit
		// costs nothing.
		if err := tx.Atomic(ctx, "quiet", func(c *Txn) error {
			_, err := c.ReadMany(ctx, []object.ID{"a", "b"})
			return err
		}); err != nil {
			return err
		}
		if got := checks(); got != 0 {
			t.Errorf("%d validation messages at an inner commit with the clock at rest, want 0", got)
		}

		// Node 2 commits and node 0 hears of it (another transaction reads
		// from node 2) while the second child runs: its commit revalidates
		// the chain, one message per owner.
		if err := tx.Atomic(ctx, "heard", func(c *Txn) error {
			if _, err := c.Read(ctx, "c"); err != nil {
				return err
			}
			if err := tc.rts[2].Atomic(ctx, "w", func(w *Txn) error { return w.Update(ctx, "z", bump) }); err != nil {
				return err
			}
			readBox(t, tc.rts[0], "z")
			if got := checks(); got != 0 {
				t.Errorf("%d validation messages before the inner commit, want 0", got)
			}
			return nil
		}); err != nil {
			return err
		}
		if got := checks(); got != 2 {
			t.Errorf("%d validation messages at an inner commit behind the node's clock, want one wave of 2", got)
		}
		if tx.start != tc.rts[0].clock.Now() {
			t.Errorf("start = %d after the inner commit, want the node's clock %d", tx.start, tc.rts[0].clock.Now())
		}

		// The start has advanced, so a copy from node 2 — whose clock is the
		// one just forwarded to — is adopted without validating again.
		if _, err := tx.Read(ctx, "d"); err != nil {
			return err
		}
		if got := checks(); got != 2 {
			t.Errorf("%d validation messages after the next fetch, want still 2", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tc.rts[0].Metrics().Snapshot()
	if snap.NestedCommits != 2 || snap.NestedOwn != 0 || snap.TotalAborts() != 0 {
		t.Fatalf("nested commits=%d own aborts=%d root aborts=%v, want 2/0/none", snap.NestedCommits, snap.NestedOwn, snap.Aborts)
	}
}

// TestOneNodeNestedUpdateSendsNothing: on a one-node cluster the directory,
// the objects and the commit are all the node's own, so seeding two objects
// and committing a nested update of both never reaches the transport.
func TestOneNodeNestedUpdateSendsNothing(t *testing.T) {
	tc := newTestCluster(t, 1, nil, nil)
	ctx := context.Background()
	var sends atomic.Int64
	tc.net.SetInterceptor(func(*transport.Message) bool { sends.Add(1); return true })
	seed(t, tc, map[object.ID]int{"p": 0, "q": 0})

	err := tc.rts[0].Atomic(ctx, "batch", func(tx *Txn) error {
		return tx.Atomic(ctx, "both", func(c *Txn) error {
			if err := c.Update(ctx, "p", bump); err != nil {
				return err
			}
			return c.Update(ctx, "q", bump)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if p, q := readBox(t, tc.rts[0], "p"), readBox(t, tc.rts[0], "q"); p != 1 || q != 1 {
		t.Fatalf("p=%d q=%d, want 1/1", p, q)
	}
	if snap := tc.rts[0].Metrics().Snapshot(); snap.NestedCommits != 1 || snap.Commits != 3 {
		t.Fatalf("nested commits=%d commits=%d, want 1/3", snap.NestedCommits, snap.Commits)
	}
	if n := sends.Load(); n != 0 {
		t.Fatalf("%d transport sends on a one-node cluster, want 0", n)
	}
}
