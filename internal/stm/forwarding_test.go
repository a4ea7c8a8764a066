package stm

import (
	"context"
	"testing"

	"dstm/internal/object"
)

// TestForwardingAbortsStaleRead reproduces TFA's early validation: a
// transaction that read x, and later receives an object whose version is
// newer than its start time, must revalidate x; if x changed, the
// transaction aborts and retries with a consistent snapshot.
func TestForwardingAbortsStaleRead(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tc.rts[0].CreateRoot(ctx, "y", &box{N: 10}); err != nil {
		t.Fatal(err)
	}

	attempts := 0
	var sawX, sawY int64
	err := tc.rts[1].Atomic(ctx, "reader", func(tx *Txn) error {
		attempts++
		vx, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		sawX = vx.(*box).N

		if attempts == 1 {
			// Node 0 commits a new version of x, and of y with its value
			// unchanged, while the reader is between its two reads: y's
			// version is past the reader's start.
			if err := tc.rts[0].Atomic(ctx, "writer", func(w *Txn) error {
				if err := w.Update(ctx, "y", func(v object.Value) object.Value { return v }); err != nil {
					return err
				}
				return w.Update(ctx, "x", func(v object.Value) object.Value {
					v.(*box).N = 2
					return v
				})
			}); err != nil {
				return err
			}
		}

		vy, err := tx.Read(ctx, "y")
		if err != nil {
			return err
		}
		sawY = vy.(*box).N
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (forwarding must abort the stale snapshot)", attempts)
	}
	if sawX != 2 || sawY != 10 {
		t.Fatalf("final snapshot x=%d y=%d, want x=2 y=10", sawX, sawY)
	}
	m := tc.rts[1].Metrics().Snapshot()
	if m.Aborts[AbortValidation] != 1 {
		t.Fatalf("validation aborts = %d, want 1", m.Aborts[AbortValidation])
	}
}

// TestForwardingAdvancesWhenReadSetIntact: the same clock-skew situation,
// but the transaction's read set is untouched — forwarding must succeed
// without an abort.
func TestForwardingAdvancesWhenReadSetIntact(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	for _, oid := range []object.ID{"x", "y", "z"} {
		if err := tc.rts[0].CreateRoot(ctx, oid, &box{N: 1}); err != nil {
			t.Fatal(err)
		}
	}

	attempts := 0
	err := tc.rts[1].Atomic(ctx, "reader", func(tx *Txn) error {
		attempts++
		if _, err := tx.Read(ctx, "x"); err != nil {
			return err
		}
		if attempts == 1 {
			// Node 0 commits an UNRELATED object; its clock still ticks.
			if err := tc.rts[0].Atomic(ctx, "writer", func(w *Txn) error {
				return w.Update(ctx, "z", func(v object.Value) object.Value {
					v.(*box).N = 99
					return v
				})
			}); err != nil {
				return err
			}
		}
		_, err := tx.Read(ctx, "y")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (intact read set must forward, not abort)", attempts)
	}
	if m := tc.rts[1].Metrics().Snapshot(); m.TotalAborts() != 0 {
		t.Fatalf("aborts = %d, want 0", m.TotalAborts())
	}
}

// TestWriteSkewPrevented: two transactions each read both objects and write
// one of them; serializability requires one to abort and retry, so the
// invariant x+y >= 0 with guard "only withdraw if x+y >= 10" holds.
func TestWriteSkewPrevented(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "wa", &box{N: 5}); err != nil {
		t.Fatal(err)
	}
	if err := tc.rts[1].CreateRoot(ctx, "wb", &box{N: 5}); err != nil {
		t.Fatal(err)
	}

	withdraw := func(rt *Runtime, target object.ID) error {
		return rt.Atomic(ctx, "skew", func(tx *Txn) error {
			va, err := tx.Read(ctx, "wa")
			if err != nil {
				return err
			}
			vb, err := tx.Read(ctx, "wb")
			if err != nil {
				return err
			}
			if va.(*box).N+vb.(*box).N < 10 {
				return nil // guard fails, no withdrawal
			}
			return tx.Update(ctx, target, func(v object.Value) object.Value {
				v.(*box).N -= 10
				return v
			})
		})
	}

	done := make(chan error, 2)
	go func() { done <- withdraw(tc.rts[0], "wa") }()
	go func() { done <- withdraw(tc.rts[1], "wb") }()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	var sum int64
	if err := tc.rts[0].Atomic(ctx, "audit", func(tx *Txn) error {
		sum = 0
		for _, oid := range []object.ID{"wa", "wb"} {
			v, err := tx.Read(ctx, oid)
			if err != nil {
				return err
			}
			sum += v.(*box).N
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Every serializable execution ends at 0: the first withdrawal drains
	// the combined balance to 0, so the second's guard fails. A sum of -10
	// means both withdrew — write skew.
	if sum != 0 {
		t.Fatalf("sum = %d, want 0 (write skew admitted)", sum)
	}
}
