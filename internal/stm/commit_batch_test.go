package stm

import (
	"context"
	"fmt"
	"testing"

	"dstm/internal/object"
)

// TestAcquireBatchPartialFailure drives the commit's locking retrieve
// through its two refusal classes: one entry of a two-object batch fails
// (commit-locked by another transaction at the owner, or stale after a
// competing commit) and the WHOLE batch must roll back — neither entry is
// held across the abort, the attempt aborts with the refusal's cause (busy:
// lock-failed; stale: validation), and the retried attempt commits cleanly.
// A busy entry leaves the owner's batch unlocked; a stale one is locked at
// its new version, and the abort releases it.
func TestAcquireBatchPartialFailure(t *testing.T) {
	const foreignTx = 0xDEAD

	cases := []struct {
		name string
		// sabotage makes exactly the "b1" entry of the first attempt's
		// commit lock fail; undo (may be nil) lifts it before attempt 2.
		sabotage  func(t *testing.T, tc *testCluster)
		undo      func(t *testing.T, tc *testCluster)
		wantCause AbortCause
	}{
		{
			name: "one-entry-busy",
			sabotage: func(t *testing.T, tc *testCluster) {
				ver, _, ok := tc.rts[0].Store().State("b1")
				if !ok {
					t.Fatal("b1 not installed at node 0")
				}
				if res := lockAt(tc.rts[0].Store(), "b1", foreignTx, ver); res != object.LockOK {
					t.Fatalf("foreign pre-lock of b1 failed: %v", res)
				}
			},
			undo: func(t *testing.T, tc *testCluster) {
				tc.rts[0].Store().Unlock("b1", foreignTx)
			},
			wantCause: AbortLockFailed,
		},
		{
			name: "one-entry-stale",
			sabotage: func(t *testing.T, tc *testCluster) {
				// A competing local commit at the owner bumps b1's version
				// after the committer fetched its copy.
				err := tc.rts[0].Atomic(context.Background(), "intf", func(itx *Txn) error {
					return itx.Write(context.Background(), "b1", &box{N: 99})
				})
				if err != nil {
					t.Fatalf("interfering commit: %v", err)
				}
			},
			wantCause: AbortValidation,
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestCluster(t, 2, nil, nil)
			ctx := context.Background()
			if err := tc.rts[0].CreateRoot(ctx, "a1", &box{N: 1}); err != nil {
				t.Fatal(err)
			}
			if err := tc.rts[0].CreateRoot(ctx, "b1", &box{N: 2}); err != nil {
				t.Fatal(err)
			}

			attempt := 0
			err := tc.rts[1].Atomic(ctx, "w", func(tx *Txn) error {
				attempt++
				if attempt == 2 {
					if c.undo != nil {
						c.undo(t, tc)
					}
					// The sibling entry "a1" would have locked; the batch's
					// atomicity guarantees it was never (or no longer is)
					// held when the aborted attempt hands over to this one,
					// and neither is "b1".
					for _, oid := range []object.ID{"a1", "b1"} {
						if tc.rts[0].Store().Locked(oid) {
							return fmt.Errorf("%s left locked by the aborted attempt", oid)
						}
					}
				}
				if err := tx.Write(ctx, "a1", &box{N: 10}); err != nil {
					return err
				}
				if err := tx.Write(ctx, "b1", &box{N: 20}); err != nil {
					return err
				}
				if attempt == 1 {
					c.sabotage(t, tc)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("transaction did not recover after batch refusal: %v", err)
			}
			if attempt < 2 {
				t.Fatalf("committed in %d attempt(s); sabotage did not refuse the batch", attempt)
			}

			snap := tc.rts[1].Metrics().Snapshot()
			if snap.Commits != 1 {
				t.Fatalf("commits = %d, want 1", snap.Commits)
			}
			if snap.Aborts[c.wantCause] != 1 || snap.TotalAborts() != 1 {
				t.Fatalf("aborts = %v, want one %v abort", snap.Aborts, c.wantCause)
			}

			// The committed values won, including over the interferer's write.
			var a, b int64
			err = tc.rts[0].Atomic(ctx, "r", func(tx *Txn) error {
				va, err := tx.Read(ctx, "a1")
				if err != nil {
					return err
				}
				vb, err := tx.Read(ctx, "b1")
				if err != nil {
					return err
				}
				a, b = va.(*box).N, vb.(*box).N
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if a != 10 || b != 20 {
				t.Fatalf("a1=%d b1=%d, want 10/20", a, b)
			}
		})
	}
}

// readBox reads one box in a transaction of its own on rt.
func readBox(t *testing.T, rt *Runtime, oid object.ID) (n int64) {
	t.Helper()
	if err := rt.Atomic(context.Background(), "readBox", func(tx *Txn) error {
		v, err := tx.Read(context.Background(), oid)
		if err == nil {
			n = v.(*box).N
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestValidateBatchStaleAbortsInnermost checks closed-nesting attribution
// through the batched validator: when one entry of a validate batch is
// stale, the innermost transaction that OBSERVED that version aborts — the
// child when it fetched the entry itself, the whole root when the child
// inherited the version from an ancestor's snapshot.
func TestValidateBatchStaleAbortsInnermost(t *testing.T) {
	// staleInnerRead runs, on node 1, a root that reads x and then a child
	// that reads y, both owned by node 0, which bumps y right after the
	// child's first fetch without a message reaching node 1. With evidence,
	// another transaction on node 1 then reads z from node 0, so node 1's
	// clock has heard of the commit when the child commits.
	staleInnerRead := func(t *testing.T, evidence bool) (rootAttempts, childAttempts int, snap MetricsSnapshot) {
		tc := newTestCluster(t, 2, nil, nil)
		ctx := context.Background()
		for _, oid := range []object.ID{"x", "y", "z"} {
			if err := tc.rts[0].CreateRoot(ctx, oid, &box{N: 1}); err != nil {
				t.Fatal(err)
			}
		}
		bumped := false
		err := tc.rts[1].Atomic(ctx, "root", func(tx *Txn) error {
			rootAttempts++
			if _, err := tx.Read(ctx, "x"); err != nil {
				return err
			}
			err := tx.Atomic(ctx, "child", func(child *Txn) error {
				childAttempts++
				if _, err := child.Read(ctx, "y"); err != nil {
					return err
				}
				if bumped {
					return nil
				}
				bumped = true
				// Bump y between the child's fetch and its commit: the
				// child's OWN read is stale.
				if err := tc.rts[0].Atomic(ctx, "intf", func(itx *Txn) error {
					return itx.Write(ctx, "y", &box{N: 50})
				}); err != nil {
					return fmt.Errorf("interferer: %v", err)
				}
				if evidence {
					readBox(t, tc.rts[1], "z")
				}
				return nil
			})
			if err != nil {
				return err
			}
			return tx.Write(ctx, "x", &box{N: 7})
		})
		if err != nil {
			t.Fatal(err)
		}
		for oid, want := range map[object.ID]int64{"x": 7, "y": 50} {
			if got := readBox(t, tc.rts[0], oid); got != want {
				t.Fatalf("%s = %d, want %d", oid, got, want)
			}
		}
		return rootAttempts, childAttempts, tc.rts[1].Metrics().Snapshot()
	}

	t.Run("own-stale-aborts-child-only", func(t *testing.T) {
		rootAttempts, childAttempts, snap := staleInnerRead(t, true)
		if rootAttempts != 1 || childAttempts < 2 {
			t.Fatalf("root ran %d time(s), child %d; the inner commit's forwarding step missed the stale entry", rootAttempts, childAttempts)
		}
		if snap.NestedOwn == 0 {
			t.Fatal("stale own read did not abort the inner transaction")
		}
		// Two root commits on node 1: the root under test and the read of z.
		if snap.Commits != 2 || snap.TotalAborts() != 0 {
			t.Fatalf("root commits=%d aborts=%v; a child-only failure aborted the root", snap.Commits, snap.Aborts)
		}
	})

	// No clock evidence: node 1 has not heard of the interferer's commit, so
	// the inner commit costs no message and merges; the version check of the
	// root commit refuses the stale read instead.
	t.Run("own-stale-unheard-aborts-root-at-commit", func(t *testing.T) {
		rootAttempts, childAttempts, snap := staleInnerRead(t, false)
		if rootAttempts != 2 || childAttempts != 2 {
			t.Fatalf("root ran %d time(s), child %d; want one root retry with one child run each", rootAttempts, childAttempts)
		}
		if snap.NestedOwn != 0 {
			t.Fatalf("nestedOwn = %d; the inner transaction had no reason to revalidate", snap.NestedOwn)
		}
		if snap.Commits != 1 || snap.Aborts[AbortValidation] != 1 || snap.TotalAborts() != 1 {
			t.Fatalf("root commits=%d aborts=%v; want one commit after one validation abort", snap.Commits, snap.Aborts)
		}
	})

	t.Run("inherited-stale-aborts-root", func(t *testing.T) {
		tc := newTestCluster(t, 2, nil, nil)
		ctx := context.Background()
		if err := tc.rts[0].CreateRoot(ctx, "y", &box{N: 1}); err != nil {
			t.Fatal(err)
		}
		rootAttempts := 0
		err := tc.rts[1].Atomic(ctx, "root", func(tx *Txn) error {
			rootAttempts++
			// The ROOT observes y's version; the child only copy-on-writes it.
			if _, err := tx.Read(ctx, "y"); err != nil {
				return err
			}
			return tx.Atomic(ctx, "child", func(child *Txn) error {
				if err := child.Write(ctx, "y", &box{N: 8}); err != nil {
					return err
				}
				if rootAttempts == 1 {
					err := tc.rts[0].Atomic(ctx, "intf", func(itx *Txn) error {
						return itx.Write(ctx, "y", &box{N: 60})
					})
					if err != nil {
						return fmt.Errorf("interferer: %v", err)
					}
				}
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if rootAttempts < 2 {
			t.Fatal("root committed first try; inherited staleness was not detected")
		}
		snap := tc.rts[1].Metrics().Snapshot()
		if snap.Aborts[AbortValidation] == 0 {
			t.Fatalf("no root validation abort; aborts = %v", snap.Aborts)
		}
		if snap.NestedOwn != 0 {
			t.Fatalf("nestedOwn = %d; an inherited-stale entry must not be charged to the child", snap.NestedOwn)
		}
		if snap.Commits != 1 {
			t.Fatalf("commits = %d, want 1", snap.Commits)
		}
	})
}

// TestCommitMsgsBoundEightObjectsTwoOwners pins the headline O(m) bound of
// the owner-grouped pipeline: a commit writing 8 objects spread over 2
// owners must cost at most 8 protocol messages (it used to cost ≥24 with
// per-object locate+acquire+publish RPCs). The expected shape is 2 acquire
// batches + 1 migration batch + ≤2 directory update batches.
func TestCommitMsgsBoundEightObjectsTwoOwners(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	var oids []object.ID
	for i := 0; i < 8; i++ {
		oid := object.ID(fmt.Sprintf("obj%d", i))
		if err := tc.rts[i%2].CreateRoot(ctx, oid, &box{N: int64(i)}); err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}

	err := tc.rts[0].Atomic(ctx, "w8", func(tx *Txn) error {
		for i, oid := range oids {
			if err := tx.Write(ctx, oid, &box{N: int64(100 + i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := tc.rts[0].Metrics().Snapshot()
	if snap.Commits != 1 {
		t.Fatalf("commits = %d, want exactly 1", snap.Commits)
	}
	if snap.CommitMsgs == 0 {
		t.Fatal("commit pipeline accounted no messages; the meter is broken")
	}
	if snap.CommitMsgs > 8 {
		t.Fatalf("commit of 8 objects on 2 owners cost %d messages, want ≤8 (O(m) owner batching)", snap.CommitMsgs)
	}
	if mpc := snap.MsgsPerCommit(); mpc > 8 {
		t.Fatalf("MsgsPerCommit = %.1f, want ≤8", mpc)
	}
	if snap.CommitRounds == 0 || snap.CommitRounds > 4 {
		t.Fatalf("commit used %d batch rounds, want 1..4", snap.CommitRounds)
	}

	// Every write landed, and ownership of the remote half migrated here.
	for i, oid := range oids {
		val, _, _, ok := tc.rts[0].Store().Snapshot(oid)
		if !ok {
			t.Fatalf("%s did not migrate to the committer", oid)
		}
		if got := val.(*box).N; got != int64(100+i) {
			t.Fatalf("%s = %d, want %d", oid, got, 100+i)
		}
	}
}
