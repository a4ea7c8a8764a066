package stm

import (
	"context"
	"errors"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstm/internal/cc"
	"dstm/internal/core"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/trace"
	"dstm/internal/trace/check"
	"dstm/internal/transport"
)

// These tests pin an announced write set (Prefetch with sched.Write): its
// retrieve wave commit-locks the objects for the attempt and brings them to
// its node, so the commit neither acquires nor validates them and a held
// copy is never dropped, revalidated or used up; an announcement that does
// not lock everywhere is given back before any access waits; and every
// ending of the attempt releases what it announced and did not publish,
// once the homes of what moved know where it is.

// announceTransfers is the bank's write transaction: announce every account
// with write intent, then one closed-nested transfer per pair.
func announceTransfers(ctx context.Context, tx *Txn, pairs ...[2]object.ID) error {
	var accts []object.ID
	for _, p := range pairs {
		accts = append(accts, p[0], p[1])
	}
	tx.Prefetch(ctx, accts, sched.Write)
	for _, p := range pairs {
		if err := transfer(ctx, tx, p[0], p[1]); err != nil {
			return err
		}
	}
	return nil
}

// noLocksLeft fails when any node holds a commit lock on any of oids.
func noLocksLeft(t *testing.T, tc *testCluster, oids ...object.ID) {
	t.Helper()
	for i, rt := range tc.rts {
		for _, oid := range oids {
			if isLocked(rt.Store(), oid) {
				t.Errorf("%s is still commit-locked at node %d", oid, i)
			}
		}
	}
}

// homesOutside returns the homes each old owner's objects in place report
// to a commit on node 0 that takes them all: every home other than node 0
// and that object's owner, in a cluster of n nodes.
func homesOutside(n int, place map[object.ID]int) map[transport.NodeID]int {
	homes := map[transport.NodeID]int{}
	for oid, owner := range place {
		if home := cc.HomeOf(oid, n); home != 0 && home != transport.NodeID(owner) {
			homes[home] = 1
		}
	}
	return homes
}

// requestsTo counts, by receiver, the requests of kind an interceptor sees.
type requestsTo struct {
	kind transport.Kind
	mu   sync.Mutex
	n    map[transport.NodeID]int
}

func (r *requestsTo) intercept(m *transport.Message) bool {
	if m.Kind == r.kind && !m.IsReply {
		r.mu.Lock()
		if r.n == nil {
			r.n = map[transport.NodeID]int{}
		}
		r.n[m.To]++
		r.mu.Unlock()
	}
	return true
}

// take returns the counts so far and starts again from none.
func (r *requestsTo) take() map[transport.NodeID]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	r.n = nil
	return n
}

// TestAnnouncedNestedWriteIsTwoWaves: a bank-shaped batch on node 0 — two
// transfers over four accounts owned by nodes 1 and 2, owners known — blocks
// on one retrieve wave, whose two requests carry the lock identity and bring
// the accounts here, and one homes wave. Each old owner gets exactly one
// message, its lock; the homes wave reaches node 3 only, the one home other
// than node 0 and the account's old owner. The commit sends no lock of its
// own and validates nothing.
func TestAnnouncedNestedWriteIsTwoWaves(t *testing.T) {
	tc := newTestCluster(t, 4, nil, nil)
	ctx := context.Background()
	ids := homedAtEach(t, 4, 3, 1, 0, 3)
	a, b, c, d := ids[0], ids[1], ids[2], ids[3]
	place := map[object.ID]int{a: 1, b: 1, c: 2, d: 2}
	seed(t, tc, place)
	for oid, owner := range place {
		tc.rts[0].Locator().NoteOwner(oid, transport.NodeID(owner))
	}
	var msgs kindCounter
	got := requestsTo{kind: KindCommitObjectBatch}
	var all routeLog
	tc.net.SetInterceptor(holdRetrieves(t, 2, func(m *transport.Message) bool {
		all.intercept(m)
		got.intercept(m)
		return msgs.intercept(m)
	}))

	err := tc.rts[0].Atomic(ctx, "bank/batch", func(tx *Txn) error {
		return announceTransfers(ctx, tx, [2]object.ID{a, c}, [2]object.ID{b, d})
	})
	if err != nil {
		t.Fatal(err)
	}
	if r, l := msgs.count(KindRetrieve), msgs.count(kindLockingRetrieve); r != 0 || l != 2 {
		t.Fatalf("%d plain and %d locking retrieves; want 0 and 2: one per owner", r, l)
	}
	if v, lk := msgs.count(KindCheckVersionBatch), msgs.count(cc.KindLookupBatch); v != 0 || lk != 0 {
		t.Fatalf("validate/lookup messages = %d/%d, want 0/0", v, lk)
	}
	for _, r := range all.take() {
		if (r.to == 1 || r.to == 2) && r.kind != KindRetrieve {
			t.Fatalf("old owner %d got %v besides its lock", r.to, r)
		}
	}
	if homes, want := got.take(), homesOutside(4, place); !maps.Equal(homes, want) || len(want) != 1 || want[3] != 1 {
		t.Fatalf("homes wave = %v (by node), want %v: node 3 only", homes, want)
	}
	m := tc.rts[0].Metrics().Snapshot()
	if m.RetrieveWaves != 1 || m.CommitRounds != 1 || m.CommitMsgs != 1 || m.TotalAborts() != 0 {
		t.Fatalf("retrieve waves %d, commit waves %d with %d messages, aborts %d; want 1, 1 with 1, 0",
			m.RetrieveWaves, m.CommitRounds, m.CommitMsgs, m.TotalAborts())
	}
	for oid, want := range map[object.ID]int64{a: 11, b: 11, c: 21, d: 21} {
		if got := readBox(t, tc.rts[0], oid); got != want {
			t.Fatalf("%s = %d, want %d", oid, got, want)
		}
	}
	noLocksLeft(t, tc, a, b, c, d)
}

// TestCrossedAnnouncementsBothCommit: writers on nodes 0 and 3 announce
// {a, b}, a owned by node 1 and b by node 2, and reach the owners in opposite
// order — each locks one object and finds the other locked. Neither waits
// holding its lock: both give back what they locked and continue on the lazy
// path, so both commit and neither times out in a queue, under RTS with a
// backoff long enough that a hold-and-wait would. The give-back is on the
// writer's own node: the lock brought the object there.
func TestCrossedAnnouncementsBothCommit(t *testing.T) {
	tc := newTestCluster(t, 4, nil, func() sched.Policy { return core.New(core.Options{CLThreshold: 5}) })
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"a": 1, "b": 2})
	// Writer 0's first announcement reaches node 2 only once node 2 has
	// answered writer 3's, and writer 3's reaches node 1 only once node 1 has
	// answered writer 0's.
	type link struct {
		kind     transport.Kind
		from, to transport.NodeID
	}
	after := map[link]link{
		{KindRetrieve, 0, 2}: {KindRetrieve, 2, 3}, {KindRetrieve, 3, 1}: {KindRetrieve, 1, 0},
	}
	answered := map[link]chan struct{}{}
	for _, reply := range after {
		answered[reply] = make(chan struct{})
	}
	var first sync.Map
	tc.net.SetInterceptor(func(m *transport.Message) bool {
		l := link{m.Kind, m.From, m.To}
		if _, seen := first.LoadOrStore(l, true); !seen {
			if ch, ok := answered[l]; ok && m.IsReply {
				defer close(ch)
			}
			if reply, ok := after[l]; ok && !m.IsReply {
				select {
				case <-answered[reply]:
				case <-time.After(2 * time.Second):
					t.Errorf("the announcements did not cross: %+v waited in vain for %+v", l, reply)
				}
			}
		}
		return true
	})

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for _, w := range []int{0, 3} {
		tc.rts[w].Stats().RecordCommit("bank/batch", 500*time.Millisecond)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = tc.rts[w].Atomic(ctx, "bank/batch", func(tx *Txn) error {
				return announceTransfers(ctx, tx, [2]object.ID{"a", "b"})
			})
		}()
	}
	wg.Wait()
	for _, w := range []int{0, 3} {
		if errs[w] != nil {
			t.Fatalf("writer %d: %v", w, errs[w])
		}
		if m := tc.rts[w].Metrics().Snapshot(); m.Aborts[AbortQueueTimeout] != 0 {
			t.Fatalf("writer %d timed out in a queue %d times", w, m.Aborts[AbortQueueTimeout])
		}
	}
	if a, b := readBox(t, tc.rts[0], "a"), readBox(t, tc.rts[0], "b"); a != 12 || b != 22 {
		t.Fatalf("a=%d b=%d, want 12/22: both transfers committed", a, b)
	}
	noLocksLeft(t, tc, "a", "b")
}

// TestLockedHeldCopyBehindTheStartIsAdopted: the root on node 0 announces x
// (node 1), then reads z from node 2, whose clock is far ahead and which has
// committed z anew, and forwards its start past the clock x's owner
// reported. A copy the attempt holds
// locked cannot have changed, so the inner transaction adopts it — no second
// retrieve, and no validation message names x. A read-intent copy in the same
// place is dropped and fetched again, and the commit locks x with a locking
// retrieve of its own.
func TestLockedHeldCopyBehindTheStartIsAdopted(t *testing.T) {
	for _, c := range []struct {
		mode              sched.Mode
		retrievesX, locks int
	}{{sched.Write, 0, 1}, {sched.Read, 2, 1}} {
		t.Run(c.mode.String(), func(t *testing.T) {
			tc := newTestCluster(t, 3, nil, nil)
			ctx := context.Background()
			seed(t, tc, map[object.ID]int{"x": 1, "z": 2})
			tc.rts[0].Locator().NoteOwner("x", 1)
			tc.rts[0].Locator().NoteOwner("z", 2)
			var retrievesX, locksX, checksX atomic.Int64
			tc.net.SetInterceptor(func(m *transport.Message) bool {
				q, ok := m.Payload.(retrieveReq)
				switch {
				case !ok:
				case m.Kind == KindCheckVersionBatch:
					if slices.Contains(q.Oids, "x") {
						checksX.Add(1)
					}
				case m.To != 1:
				case q.LockID != 0:
					locksX.Add(1)
				default:
					retrievesX.Add(1)
				}
				return true
			})

			err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
				tx.Prefetch(ctx, []object.ID{"x"}, c.mode)
				behind := tx.root.held.copies["x"].ownerClock
				for i := 0; i < 20; i++ {
					tc.rts[2].ep.Clock().Tick()
				}
				// z is committed anew at its owner, past x's owner clock.
				if err := tc.rts[2].Atomic(ctx, "w", func(w *Txn) error { return w.Update(ctx, "z", bump) }); err != nil {
					return err
				}
				if _, err := tx.Read(ctx, "z"); err != nil {
					return err
				}
				if tx.start <= behind {
					t.Fatalf("start %d not forwarded past x's owner clock %d", tx.start, behind)
				}
				return tx.Atomic(ctx, "opens x", func(in *Txn) error { return in.Update(ctx, "x", bump) })
			})
			if err != nil {
				t.Fatal(err)
			}
			if r, l, v := retrievesX.Load(), locksX.Load(), checksX.Load(); r != int64(c.retrievesX) || l != int64(c.locks) || v != 0 {
				t.Fatalf("%d plain and %d locking retrieves of x, %d validation entries for x; want %d, %d, 0", r, l, v, c.retrievesX, c.locks)
			}
			if x := readBox(t, tc.rts[0], "x"); x != 11 {
				t.Fatalf("x=%d, want 11", x)
			}
		})
	}
}

// TestEveryEndingReleasesTheAnnouncement: the root announces x (node 1) and
// y (node 2) and then ends without publishing them — a root abort (the retry
// commits), an application error, a cancelled context; or, in the commit, a
// refused commit lock (the retry commits), a read found stale at validation
// (the retry commits), a creation whose ID is registered already, a
// read-only commit. Each leaves no commit lock in any store and x and y at
// node 0, which their locks brought them to, with their homes saying so; the
// oracle's batch atomicity (I7: no lock held by an aborted attempt at the
// end of the trace) holds; and the first attempt's ending sends one homes
// message to each home other than node 0 and the object's old owner, and
// nothing to the old owners.
func TestEveryEndingReleasesTheAnnouncement(t *testing.T) {
	type ending struct {
		ctx     context.Context
		tc      *testCluster
		tx      *Txn
		cancel  context.CancelFunc
		attempt int
	}
	appErr := errors.New("application says no")
	for _, c := range []struct {
		name     string
		end      func(e ending) error
		want     error                 // Atomic's error, matched with errors.Is; nil for a commit
		wantText string                // a part of Atomic's error, where it has no sentinel
		aborts   map[AbortCause]uint64 // the root aborts on the way
	}{
		{"root abort", func(e ending) error {
			if e.attempt == 1 {
				return &abortError{target: e.tx, cause: AbortValidation}
			}
			return nil
		}, nil, "", map[AbortCause]uint64{AbortValidation: 1}},
		{"application error", func(ending) error { return appErr }, appErr, "", nil},
		{"cancelled context", func(e ending) error {
			e.cancel()
			return context.Canceled
		}, context.Canceled, "", nil},
		{"commit lock refused", func(e ending) error {
			owner := e.tc.rts[1].Store()
			if e.attempt > 1 {
				owner.Unlock("z", fakeValidator)
			}
			if err := e.tx.Update(e.ctx, "z", bump); err != nil {
				return err
			}
			if e.attempt == 1 { // another committer holds z when the commit locks it
				lockOne(owner, "z", fakeValidator, owner.State("z").Ver)
			}
			return nil
		}, nil, "", map[AbortCause]uint64{AbortLockFailed: 1}},
		{"stale read at validation", func(e ending) error {
			if _, err := e.tx.Read(e.ctx, "w"); err != nil {
				return err
			}
			if e.attempt == 1 { // another commit updates w after the read
				owner := e.tc.rts[1].Store()
				lockOne(owner, "w", fakeValidator, owner.State("w").Ver)
				if err := owner.UpdateCommitted("w", &box{N: 11}, object.Version{Clock: 99, Node: 1}, fakeValidator); err != nil {
					return err
				}
			}
			return e.tx.Update(e.ctx, "x", bump)
		}, nil, "", map[AbortCause]uint64{AbortValidation: 1}},
		{"creation refused", func(e ending) error {
			return e.tx.Create("dup", &box{N: 1})
		}, nil, "already registered", nil},
		{"read-only commit", func(e ending) error {
			_, err := e.tx.Read(e.ctx, "x")
			return err
		}, nil, "", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestCluster(t, 3, nil, nil)
			recs := make([][]trace.Event, 0, 3)
			var recorders []*trace.Recorder
			for i, rt := range tc.rts {
				rec := trace.NewRecorder(transport.NodeID(i), 0, rt.clock.Now)
				rt.SetTracer(rec)
				recorders = append(recorders, rec)
			}
			seed(t, tc, map[object.ID]int{"x": 1, "y": 2, "z": 1, "w": 1, "dup": 2})
			homes := requestsTo{kind: KindCommitObjectBatch}
			tc.net.SetInterceptor(homes.intercept)
			// firstEnding is the homes wave of the first attempt's ending,
			// read when the second attempt starts or Atomic returns.
			var firstEnding map[transport.NodeID]int
			endFirst := func() {
				if firstEnding == nil {
					firstEnding = homes.take()
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			attempt := 0
			err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
				if attempt++; attempt > 1 {
					endFirst()
				}
				tx.Prefetch(ctx, []object.ID{"x", "y"}, sched.Write)
				if n := len(tx.root.held.locked); n != 2 {
					t.Errorf("attempt %d holds %d announced locks, want 2", attempt, n)
				}
				return c.end(ending{ctx, tc, tx, cancel, attempt})
			})
			endFirst()
			switch {
			case c.wantText != "":
				if err == nil || !strings.Contains(err.Error(), c.wantText) {
					t.Fatalf("Atomic = %v, want an error containing %q", err, c.wantText)
				}
			case !errors.Is(err, c.want):
				t.Fatalf("Atomic = %v, want %v", err, c.want)
			}
			aborts := tc.rts[0].Metrics().Snapshot().Aborts
			maps.DeleteFunc(aborts, func(_ AbortCause, n uint64) bool { return n == 0 })
			if !maps.Equal(aborts, c.aborts) {
				t.Fatalf("root aborts %v, want %v", aborts, c.aborts)
			}
			if want := homesOutside(3, map[object.ID]int{"x": 1, "y": 2}); !maps.Equal(firstEnding, want) {
				t.Fatalf("the first attempt's ending sent homes messages %v (by node), want %v", firstEnding, want)
			}
			noLocksLeft(t, tc, "x", "y", "z", "w", "dup")
			if owners, _, err := tc.rts[1].Locator().AskHomes(context.Background(), []object.ID{"x", "y"}); err != nil ||
				owners["x"] != 0 || owners["y"] != 0 || !tc.rts[0].Store().Owns("x") || !tc.rts[0].Store().Owns("y") {
				t.Fatalf("homes say %v (%v); want x and y at node 0, which holds them", owners, err)
			}
			for _, rec := range recorders {
				recs = append(recs, rec.Events())
			}
			if err := check.Run(trace.Merge(recs...), check.Options{}).Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInnerRetryRetakesTheLockedCopy: the inner transaction that opens an
// announced object aborts once. Its retry takes the held copy again — the
// object is locked for the attempt, so it is still current — and sends no
// retrieve.
func TestInnerRetryRetakesTheLockedCopy(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"x": 1})
	var msgs kindCounter
	tc.net.SetInterceptor(msgs.intercept)

	runs := 0
	err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
		tx.Prefetch(ctx, []object.ID{"x"}, sched.Write)
		return tx.Atomic(ctx, "inner", func(c *Txn) error {
			runs++
			if err := c.Update(ctx, "x", bump); err != nil {
				return err
			}
			if r, l := msgs.count(KindRetrieve), msgs.count(kindLockingRetrieve); r != 0 || l != 1 {
				t.Errorf("run %d: %d plain and %d locking retrieves so far, want 0 and 1: the announcement's", runs, r, l)
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
	m := tc.rts[0].Metrics().Snapshot()
	if runs != 2 || m.Retrieves != 1 || m.PrefetchOpened != 2 || m.NestedOwn != 1 || m.TotalAborts() != 0 {
		t.Fatalf("runs=%d retrieves=%d opened=%d own aborts=%d root aborts=%d, want 2/1/2/1/0",
			runs, m.Retrieves, m.PrefetchOpened, m.NestedOwn, m.TotalAborts())
	}
	if x := readBox(t, tc.rts[0], "x"); x != 11 {
		t.Fatalf("x=%d, want 11: the aborted run's write is gone", x)
	}
}

// TestUnwrittenAnnouncementIsReleasedByTheCommit: the root announces x (node
// 1), y and z (node 2), writes x, only reads y and never opens z. The commit
// validates nothing and frees y and z, versions unchanged, at node 0, where
// their locks brought them, in the same step that publishes x: the homes
// wave, when there is one, is the commit's one wave, and the old owners hear
// nothing after their locks.
func TestUnwrittenAnnouncementIsReleasedByTheCommit(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	place := map[object.ID]int{"x": 1, "y": 2, "z": 2}
	seed(t, tc, place)
	before := map[object.ID]object.Version{}
	for _, oid := range []object.ID{"y", "z"} {
		before[oid] = tc.rts[2].Store().State(oid).Ver
	}
	var msgs kindCounter
	tc.net.SetInterceptor(msgs.intercept)

	err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
		tx.Prefetch(ctx, []object.ID{"x", "y", "z"}, sched.Write)
		return tx.Atomic(ctx, "inner", func(c *Txn) error {
			if _, err := c.Read(ctx, "y"); err != nil {
				return err
			}
			return c.Update(ctx, "x", bump)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	homes := len(homesOutside(3, place))
	if l, v, h := msgs.count(kindLockingRetrieve), msgs.count(KindCheckVersionBatch), msgs.count(KindCommitObjectBatch); l != 2 || v != 0 || h != homes {
		t.Fatalf("locking retrieve/validate/homes messages = %d/%d/%d, want 2/0/%d: the announcement's, one per owner, and one per home outside",
			l, v, h, homes)
	}
	if m := tc.rts[0].Metrics().Snapshot(); m.CommitRounds != uint64(min(homes, 1)) {
		t.Fatalf("commit took %d waves, want %d: the homes wave alone", m.CommitRounds, min(homes, 1))
	}
	for oid, ver := range before {
		if now := tc.rts[0].Store().State(oid).Ver; now != ver {
			t.Fatalf("%s version %v after the release, want %v unchanged", oid, now, ver)
		}
	}
	noLocksLeft(t, tc, "x", "y", "z")
	if x := readBox(t, tc.rts[0], "x"); x != 11 {
		t.Fatalf("x=%d, want 11", x)
	}
}

// TestReleaseRacesItsAnnouncement: the attempt's context is cancelled while
// the reply to its announcement is on the wire, after the owner has handed x
// over. The release cannot overtake the announcement: the locking retrieve
// is detached from the attempt's context, so Prefetch waits for the reply,
// installs x and, the context being over, gives it back on its own node
// before it returns. No lock is left held, and x is at node 0 with its home
// saying so.
func TestReleaseRacesItsAnnouncement(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	x := homedAt(t, 3, 2)
	seed(t, tc, map[object.ID]int{x: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var lc lockCalls
	tc.net.SetInterceptor(func(m *transport.Message) bool {
		if lc.isReply(m) {
			cancel()
			time.Sleep(10 * time.Millisecond) // the attempt must not act on the cancel alone
		}
		return true
	})
	err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
		tx.Prefetch(ctx, []object.ID{x}, sched.Write)
		if !tc.rts[0].Store().Owns(x) || isLocked(tc.rts[0].Store(), x) || len(tx.root.held.locked) != 0 {
			t.Errorf("Prefetch returned before x was here and given back")
		}
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Atomic = %v, want context.Canceled", err)
	}
	noLocksLeft(t, tc, x)
	if !tc.rts[0].Store().Owns(x) || tc.rts[1].Store().Owns(x) || homeSays(t, tc.rts[1], x) != 0 {
		t.Fatalf("x is not at node 0 alone, or its home does not say so")
	}
}

// TestLostLockReplyLosesTheObjectVisibly: an owner that served a lock has
// handed its objects over, so a lock reply lost for good — here the caller
// gives up while every reply is dropped — loses them: no store holds x any
// more (DESIGN §10). The run's verdict must not miss it: the protocol oracle
// finds the migrating release with no locked install anywhere.
func TestLostLockReplyLosesTheObjectVisibly(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	var recorders []*trace.Recorder
	for i, rt := range tc.rts {
		rec := trace.NewRecorder(transport.NodeID(i), 0, rt.clock.Now)
		rt.SetTracer(rec)
		recorders = append(recorders, rec)
	}
	seed(t, tc, map[object.ID]int{"x": 1})
	served := make(chan struct{})
	var once sync.Once
	tc.net.SetInterceptor(func(m *transport.Message) bool {
		if m.IsReply && m.Kind == KindRetrieve && m.From == 1 {
			once.Do(func() { close(served) })
			return false
		}
		return true
	})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	const lockID = 1<<40 | 9
	if _, err := tc.rts[0].ep.Call(ctx, 1, KindRetrieve, retrieveReq{TxID: lockID, Mode: sched.Write,
		Prefetch: true, LockID: lockID, Oids: []object.ID{"x"}}); err == nil {
		t.Fatal("the lock call returned with every reply dropped")
	}
	<-served
	for _, rt := range tc.rts {
		if rt.Store().Owns("x") {
			t.Fatalf("node %d holds x after its lock reply was lost", rt.Self())
		}
	}
	var recs [][]trace.Event
	for _, rec := range recorders {
		recs = append(recs, rec.Events())
	}
	err := check.Run(trace.Merge(recs...), check.Options{}).Err()
	if err == nil || !strings.Contains(err.Error(), "no node installed it locked") {
		t.Fatalf("oracle verdict %v, want the lost lock named", err)
	}
}
