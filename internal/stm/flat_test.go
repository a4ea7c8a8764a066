package stm

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dstm/internal/object"
)

func TestFlatNestingInlinesInnerBlocks(t *testing.T) {
	tc := newTestCluster(t, 1, nil, nil)
	rt := tc.rts[0]
	rt.SetNesting(FlatNesting)
	ctx := context.Background()
	if err := rt.CreateRoot(ctx, "x", &box{N: 0}); err != nil {
		t.Fatal(err)
	}

	err := rt.Atomic(ctx, "outer", func(tx *Txn) error {
		return tx.Atomic(ctx, "inner", func(c *Txn) error {
			if c != tx {
				return fmt.Errorf("flat nesting must inline: inner txn is a different level")
			}
			return c.Update(ctx, "x", func(v object.Value) object.Value {
				v.(*box).N = 7
				return v
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics().Snapshot()
	if m.NestedCommits != 0 {
		t.Fatalf("flat nesting recorded %d nested commits", m.NestedCommits)
	}
}

// Under flat nesting, an inner conflict aborts and retries the WHOLE
// top-level transaction (the cost closed nesting avoids).
func TestFlatNestingAbortsWholeTransaction(t *testing.T) {
	tc := newTestCluster(t, 1, nil, nil)
	rt := tc.rts[0]
	rt.SetNesting(FlatNesting)
	ctx := context.Background()

	outerRuns, innerRuns := 0, 0
	err := rt.Atomic(ctx, "outer", func(tx *Txn) error {
		outerRuns++
		return tx.Atomic(ctx, "inner", func(c *Txn) error {
			innerRuns++
			if innerRuns == 1 {
				return &abortError{target: c.root, cause: AbortValidation}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if outerRuns != 2 {
		t.Fatalf("outer ran %d times, want 2 (flat nesting restarts the root)", outerRuns)
	}
}

func TestFlatNestingUserErrorPropagates(t *testing.T) {
	tc := newTestCluster(t, 1, nil, nil)
	rt := tc.rts[0]
	rt.SetNesting(FlatNesting)
	ctx := context.Background()

	boom := errors.New("boom")
	err := rt.Atomic(ctx, "outer", func(tx *Txn) error {
		return tx.Atomic(ctx, "inner", func(c *Txn) error { return boom })
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestNestingModeString(t *testing.T) {
	if ClosedNesting.String() != "closed" || FlatNesting.String() != "flat" {
		t.Fatalf("mode strings: %q %q", ClosedNesting, FlatNesting)
	}
}
