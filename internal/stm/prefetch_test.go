package stm

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"dstm/internal/core"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
)

// These tests pin Txn.Prefetch: the announced objects are fetched in one
// held wave and the accesses send nothing; a held copy is a reply that
// arrived late — it is adopted, validated and, when stale, aborted at the
// level that opens it; a commit-locked object is left alone at its owner;
// and copies nobody opens cost the commit nothing.

// transfer is the bank's inner transaction: open both objects, update both.
func transfer(ctx context.Context, tx *Txn, from, to object.ID) error {
	return tx.Atomic(ctx, "transfer", func(c *Txn) error {
		if _, err := c.ReadMany(ctx, []object.ID{from, to}); err != nil {
			return err
		}
		if err := c.Update(ctx, from, bump); err != nil {
			return err
		}
		return c.Update(ctx, to, bump)
	})
}

// TestPrefetchIsOneHeldWave: a batch of two transfers over four objects on
// three remote owners sends one retrieve per owner, all in flight together,
// and the inner transactions send none; the commit locks with one locking
// retrieve per owner, which Metrics.Retrieves counts too.
func TestPrefetchIsOneHeldWave(t *testing.T) {
	tc := newTestCluster(t, 4, nil, nil)
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"a": 1, "b": 1, "c": 2, "d": 3})
	var msgs kindCounter
	tc.net.SetInterceptor(holdRetrieves(t, 3, msgs.intercept))

	err := tc.rts[0].Atomic(ctx, "batch", func(tx *Txn) error {
		tx.Prefetch(ctx, []object.ID{"a", "c", "b", "d", "a"}, sched.Read)
		if got := msgs.count(KindRetrieve); got != 3 {
			t.Errorf("the prefetch sent %d retrieves, want 3: one per owner", got)
		}
		if err := transfer(ctx, tx, "a", "c"); err != nil {
			return err
		}
		return transfer(ctx, tx, "b", "d")
	})
	if err != nil {
		t.Fatal(err)
	}
	if r, l := msgs.count(KindRetrieve), msgs.count(kindLockingRetrieve); r != 3 || l != 3 {
		t.Fatalf("%d plain and %d locking retrieves in all, want 3 and 3: the inner transactions send none", r, l)
	}
	m := tc.rts[0].Metrics().Snapshot()
	if m.Retrieves != 6 || m.Prefetched != 4 || m.PrefetchOpened != 4 || m.NestedCommits != 2 || m.TotalAborts() != 0 {
		t.Fatalf("retrieves=%d prefetched=%d opened=%d nested commits=%d aborts=%d, want 6/4/4/2/0",
			m.Retrieves, m.Prefetched, m.PrefetchOpened, m.NestedCommits, m.TotalAborts())
	}
	for oid, want := range map[object.ID]int64{"a": 11, "b": 11, "c": 21, "d": 31} {
		if got := readBox(t, tc.rts[0], oid); got != want {
			t.Fatalf("%s = %d, want %d", oid, got, want)
		}
	}
}

// TestPrefetchBatchesShareTheHeldSet: two announcements in a row each fetch
// their objects into the one held set, and the accesses find every copy.
func TestPrefetchBatchesShareTheHeldSet(t *testing.T) {
	tc := newTestCluster(t, 4, nil, nil)
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"a": 1, "b": 1, "c": 2, "d": 3})
	var msgs kindCounter
	tc.net.SetInterceptor(msgs.intercept)

	err := tc.rts[0].Atomic(ctx, "batch", func(tx *Txn) error {
		tx.Prefetch(ctx, []object.ID{"a", "b"}, sched.Read)
		tx.Prefetch(ctx, []object.ID{"c", "d"}, sched.Read)
		if err := transfer(ctx, tx, "a", "c"); err != nil {
			return err
		}
		return transfer(ctx, tx, "b", "d")
	})
	if err != nil {
		t.Fatal(err)
	}
	r, l := msgs.count(KindRetrieve), msgs.count(kindLockingRetrieve)
	if m := tc.rts[0].Metrics().Snapshot(); r != 3 || l != 3 || m.Prefetched != 4 || m.PrefetchOpened != 4 {
		t.Fatalf("retrieves=%d locking=%d prefetched=%d opened=%d, want 3/3/4/4", r, l, m.Prefetched, m.PrefetchOpened)
	}
}

// TestStalePrefetchedCopyAbortsTheInnerTransactionOnly: x is overwritten
// after the root's prefetch fetched it, and the root's node hears of the
// commit. The inner transaction that opens the held copy is the one whose
// forwarding step finds it stale: it retries alone, refetching x, and the
// root never aborts.
func TestStalePrefetchedCopyAbortsTheInnerTransactionOnly(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"x": 1, "z": 2})

	rootRuns, innerRuns := 0, 0
	err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
		rootRuns++
		tx.Prefetch(ctx, []object.ID{"x"}, sched.Read)
		if err := tc.rts[2].Atomic(ctx, "w", func(w *Txn) error { return w.Write(ctx, "x", &box{N: 50}) }); err != nil {
			return err
		}
		readBox(t, tc.rts[0], "z") // node 0 hears node 2's clock
		return tx.Atomic(ctx, "opens x", func(c *Txn) error {
			innerRuns++
			return c.Update(ctx, "x", bump)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	m := tc.rts[0].Metrics().Snapshot()
	if rootRuns != 1 || innerRuns != 2 || m.NestedOwn != 1 || m.TotalAborts() != 0 {
		t.Fatalf("root ran %d times, the inner transaction %d; own aborts %d, root aborts %d; want 1, 2, 1, 0",
			rootRuns, innerRuns, m.NestedOwn, m.TotalAborts())
	}
	if x := readBox(t, tc.rts[1], "x"); x != 51 {
		t.Fatalf("x=%d, want 51", x)
	}
}

// conflictCounter counts what a node's scheduler was shown.
type conflictCounter struct {
	sched.Policy
	observed, conflicts atomic.Int64
}

func (p *conflictCounter) ObserveRequest(oid object.ID, txid uint64) int {
	p.observed.Add(1)
	return p.Policy.ObserveRequest(oid, txid)
}

func (p *conflictCounter) OnConflict(r sched.Request) sched.Decision {
	p.conflicts.Add(1)
	return p.Policy.OnConflict(r)
}

// TestPrefetchLeavesALockedObjectAlone: y is commit-locked when the prefetch
// arrives. Its owner's scheduler sees nothing of it — no observation, no
// conflict, no queue entry — and nothing is held; the inner transaction's
// own request is the one that is scheduled, queued and handed the object.
func TestPrefetchLeavesALockedObjectAlone(t *testing.T) {
	var owner *conflictCounter
	rts := core.New(core.Options{CLThreshold: 5})
	node := 0
	tc := newTestCluster(t, 2, nil, func() sched.Policy {
		node++
		if node-1 == 1 {
			owner = &conflictCounter{Policy: rts}
			return owner
		}
		return sched.NewTFA()
	})
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"y": 1})
	lockObject(t, tc.rts[1], "y")
	tc.rts[0].Stats().RecordCommit("root", 500*time.Millisecond) // a comfortable backoff when queued

	done := make(chan error, 1)
	go func() {
		done <- tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
			tx.Prefetch(ctx, []object.ID{"y"}, sched.Read)
			if o, c, q, h := owner.observed.Load(), owner.conflicts.Load(), rts.QueueLen("y"), len(tx.pre.held); o != 0 || c != 0 || q != 0 || h != 0 {
				t.Errorf("prefetch of a locked object: observed %d, conflicts %d, queued %d, held %d; want none", o, c, q, h)
			}
			return tx.Atomic(ctx, "opens y", func(c *Txn) error { return c.Update(ctx, "y", bump) })
		})
	}()
	waitFor(t, func() bool { return rts.QueueLen("y") == 1 })
	if o, c := owner.observed.Load(), owner.conflicts.Load(); o != 1 || c != 1 {
		t.Fatalf("the transaction's own request: observed %d, conflicts %d; want 1, 1", o, c)
	}
	unlockAndServe(tc.rts[1], "y")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m := tc.rts[0].Metrics().Snapshot(); m.Pushes != 1 || m.Prefetched != 0 || m.PrefetchOpened != 0 || m.TotalAborts() != 0 {
		t.Fatalf("pushes=%d prefetched=%d opened=%d aborts=%d, want 1/0/0/0", m.Pushes, m.Prefetched, m.PrefetchOpened, m.TotalAborts())
	}
}

// TestUnopenedPrefetchCostsTheCommitNothing: copies nobody opens join no
// read set, so the commit validates nothing for them and sends what it
// would have sent; in a read-only commit the prefetch's requests are read
// messages like any other.
func TestUnopenedPrefetchCostsTheCommitNothing(t *testing.T) {
	commit := func(prefetch bool) (MetricsSnapshot, int) {
		tc := newTestCluster(t, 3, nil, nil)
		ctx := context.Background()
		seed(t, tc, map[object.ID]int{"w": 1, "u": 1, "v": 2})
		var msgs kindCounter
		tc.net.SetInterceptor(msgs.intercept)
		err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
			if prefetch {
				tx.Prefetch(ctx, []object.ID{"u", "v"}, sched.Read)
			}
			return tx.Update(ctx, "w", bump)
		})
		if err != nil {
			t.Fatal(err)
		}
		return tc.rts[0].Metrics().Snapshot(), msgs.count(kindLockingRetrieve, KindCheckVersionBatch, KindCommitObjectBatch)
	}
	plain, plainMsgs := commit(false)
	with, withMsgs := commit(true)
	if with.CommitMsgs != plain.CommitMsgs || with.CommitRounds != plain.CommitRounds || withMsgs != plainMsgs {
		t.Fatalf("commit with unopened copies: %d msgs in %d rounds (%d on the wire), without: %d in %d (%d)",
			with.CommitMsgs, with.CommitRounds, withMsgs, plain.CommitMsgs, plain.CommitRounds, plainMsgs)
	}
	if with.Prefetched != 2 || with.PrefetchOpened != 0 || with.Retrieves != plain.Retrieves+2 {
		t.Fatalf("prefetched=%d opened=%d retrieves=%d, want 2, 0, %d", with.Prefetched, with.PrefetchOpened, with.Retrieves, plain.Retrieves+2)
	}

	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"u": 1, "v": 2})
	if err := tc.rts[0].Atomic(ctx, "ro", func(tx *Txn) error {
		tx.Prefetch(ctx, []object.ID{"u", "v"}, sched.Read)
		_, err := tx.Read(ctx, "u")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if m := tc.rts[0].Metrics().Snapshot(); m.ReadOnlyCommits != 1 || m.ReadMsgs != 2 || m.Retrieves != 2 {
		t.Fatalf("read-only commits %d, read msgs %d, retrieves %d; want 1, 2, 2", m.ReadOnlyCommits, m.ReadMsgs, m.Retrieves)
	}
}

// TestInnerRetryRefetches: a held copy is consumed by the level that opens
// it, so when that level retries it fetches the object the normal way.
func TestInnerRetryRefetches(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"x": 1})
	var msgs kindCounter
	tc.net.SetInterceptor(msgs.intercept)

	runs := 0
	err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
		tx.Prefetch(ctx, []object.ID{"x"}, sched.Read)
		return tx.Atomic(ctx, "inner", func(c *Txn) error {
			runs++
			if _, err := c.Read(ctx, "x"); err != nil {
				return err
			}
			if want := runs; msgs.count(KindRetrieve) != want {
				t.Errorf("run %d: %d retrieves so far, want %d", runs, msgs.count(KindRetrieve), want)
			}
			if runs == 1 {
				return &abortError{target: c, cause: AbortValidation}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := tc.rts[0].Metrics().Snapshot(); runs != 2 || m.Prefetched != 1 || m.PrefetchOpened != 1 || m.Retrieves != 2 {
		t.Fatalf("runs=%d prefetched=%d opened=%d retrieves=%d, want 2/1/1/2", runs, m.Prefetched, m.PrefetchOpened, m.Retrieves)
	}
}

// slowRetrieves is a memnet interceptor that holds every retrieve reply for
// 20 ms and counts the retrieves not answered yet.
type slowRetrieves struct{ unanswered atomic.Int64 }

func (s *slowRetrieves) intercept(m *transport.Message) bool {
	if m.Kind == KindRetrieve {
		if m.IsReply {
			time.Sleep(20 * time.Millisecond)
			s.unanswered.Add(-1)
		} else {
			s.unanswered.Add(1)
		}
	}
	return true
}

// TestPrefetchReturnsWithTheCopiesHeld: retrieve replies take 20 ms. When
// Prefetch returns, the root holds every announced copy and no retrieve is
// left on the wire.
func TestPrefetchReturnsWithTheCopiesHeld(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"a": 1, "b": 1, "c": 2})
	var slow slowRetrieves
	tc.net.SetInterceptor(slow.intercept)

	err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
		tx.Prefetch(ctx, []object.ID{"a", "b", "c"}, sched.Read)
		if h, n := len(tx.pre.held), slow.unanswered.Load(); h != 3 || n != 0 {
			t.Errorf("after Prefetch: %d copies held, %d retrieves unanswered; want 3, 0", h, n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWritePrefetchReturnsLocked: retrieve replies take 20 ms. When an
// announcement of x (node 1) and y (node 2) returns, both are commit-locked
// at their owners under the attempt's lock identity and both copies are
// held. When node 2 refuses because y is locked for another transaction,
// neither is locked for the attempt and x is a plain held copy.
func TestWritePrefetchReturnsLocked(t *testing.T) {
	for _, refused := range []bool{false, true} {
		t.Run(map[bool]string{false: "locked", true: "refused"}[refused], func(t *testing.T) {
			tc := newTestCluster(t, 3, nil, nil)
			ctx := context.Background()
			place := map[object.ID]int{"x": 1, "y": 2}
			seed(t, tc, place)
			wantHeld := 2
			if refused {
				lockObject(t, tc.rts[2], "y")
				defer unlockAndServe(tc.rts[2], "y")
				wantHeld = 1
			}
			var slow slowRetrieves
			tc.net.SetInterceptor(slow.intercept)

			err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
				tx.Prefetch(ctx, []object.ID{"x", "y"}, sched.Write)
				if h, n := len(tx.pre.held), slow.unanswered.Load(); h != wantHeld || n != 0 {
					t.Errorf("after Prefetch: %d copies held, %d retrieves unanswered; want %d, 0", h, n, wantHeld)
				}
				for oid, node := range place {
					if by := tc.rts[node].Store().State(oid).LockedBy; (by == tx.lockID) == refused {
						t.Errorf("after Prefetch: %s locked by %x at node %d, attempt %x; want locked for the attempt: %v",
							oid, by, node, tx.lockID, !refused)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			noLocksLeft(t, tc, "x")
		})
	}
}
