package stm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstm/internal/cc"
	"dstm/internal/core"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
)

// These tests pin the per-owner retrieve (fetchMany): one parallel wave per
// hop, the scheduler's decision per entry, the moved-to hop and its
// fallback, the single forwarding step per wave, and the reply being a
// consistent cut as of its owner clock.

// kindCounter is a memnet interceptor counting request and one-way messages
// by kind (replies are not counted). A locking retrieve (nonzero LockID)
// counts as kindLockingRetrieve, not as KindRetrieve.
type kindCounter struct {
	mu sync.Mutex
	n  map[transport.Kind]int
}

// kindLockingRetrieve is the kind a kindCounter files the locking retrieve
// under, the one way to take a commit lock (Txn.lockWave). No message
// carries it.
const kindLockingRetrieve transport.Kind = 1 << 15

func (c *kindCounter) intercept(m *transport.Message) bool {
	if !m.IsReply {
		kind := m.Kind
		if q, ok := m.Payload.(retrieveReq); ok && q.LockID != 0 {
			kind = kindLockingRetrieve
		}
		c.mu.Lock()
		if c.n == nil {
			c.n = make(map[transport.Kind]int)
		}
		c.n[kind]++
		c.mu.Unlock()
	}
	return true
}

// lockCalls tells the reply to a locking retrieve from any other message,
// given every message in the order it is sent (replies are wrapped, so only
// their correlation names what they answer).
type lockCalls struct {
	mu    sync.Mutex
	calls map[[2]uint64]bool // (caller, correlation) of each locking retrieve
}

// isReply reports whether m answers a locking retrieve, noting m if it is one.
func (l *lockCalls) isReply(m *transport.Message) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if q, ok := m.Payload.(retrieveReq); ok && q.LockID != 0 && !m.IsReply {
		if l.calls == nil {
			l.calls = map[[2]uint64]bool{}
		}
		l.calls[[2]uint64{uint64(m.From), m.Corr}] = true
		return false
	}
	return m.IsReply && l.calls[[2]uint64{uint64(m.To), m.Corr}]
}

func (c *kindCounter) count(kinds ...transport.Kind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := 0
	for _, k := range kinds {
		sum += c.n[k]
	}
	return sum
}

// holdRetrieves returns a memnet interceptor that holds every retrieve
// reply inside Send until owners distinct nodes have received their request
// (a node replying has received it), and hands everything else (and the
// released replies) to next. An implementation that waits for one reply
// before sending the next request never gets past the first.
func holdRetrieves(t *testing.T, owners int, next func(*transport.Message) bool) func(*transport.Message) bool {
	return holdReplies(t, KindRetrieve, owners, "retrieve", "the wave is not parallel", next)
}

// holdReplies holds each reply of kind inside Send until nodes distinct
// nodes have sent one, and hands every message to next once it passes.
// Holding the reply, not the request, leaves the sender free to send the
// rest of its wave from one goroutine.
func holdReplies(t *testing.T, kind transport.Kind, nodes int, what, why string, next func(*transport.Message) bool) func(*transport.Message) bool {
	var (
		mu      sync.Mutex
		reached = map[transport.NodeID]bool{}
		all     = make(chan struct{})
	)
	return func(m *transport.Message) bool {
		if m.Kind == kind && m.IsReply {
			mu.Lock()
			if !reached[m.From] {
				reached[m.From] = true
				if len(reached) == nodes {
					close(all)
				}
			}
			mu.Unlock()
			select {
			case <-all:
			case <-time.After(2 * time.Second):
				t.Errorf("%s to node %d sent alone: %s", what, m.From, why)
			}
		}
		return next(m)
	}
}

// seed creates each object, holding box{N: 10*owner}, at its owner.
func seed(t *testing.T, tc *testCluster, place map[object.ID]int) {
	t.Helper()
	for oid, node := range place {
		if err := tc.rts[node].CreateRoot(context.Background(), oid, &box{N: int64(10 * node)}); err != nil {
			t.Fatal(err)
		}
	}
}

// abortCause unwraps the abort a fetch returned.
func abortCause(t *testing.T, err error) AbortCause {
	t.Helper()
	var ae *abortError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want a transaction abort", err)
	}
	return ae.cause
}

// TestReadManyIsOneWave: four objects on three remote owners are fetched
// with three retrieves that are all in flight together — proved without a
// clock, by holdRetrieves.
func TestReadManyIsOneWave(t *testing.T) {
	tc := newTestCluster(t, 4, nil, nil)
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"a": 1, "b": 1, "c": 2, "d": 3})
	var msgs kindCounter
	tc.net.SetInterceptor(holdRetrieves(t, 3, msgs.intercept))

	var vals []object.Value
	err := tc.rts[0].Atomic(ctx, "audit", func(tx *Txn) (err error) {
		vals, err = tx.ReadMany(ctx, []object.ID{"d", "a", "c", "b", "a"})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{30, 10, 20, 10, 10} {
		if got := vals[i].(*box).N; got != want {
			t.Fatalf("vals[%d] = %d, want %d", i, got, want)
		}
	}
	if got := msgs.count(KindRetrieve); got != 3 {
		t.Fatalf("%d retrieve requests, want 3 (one per owner)", got)
	}
	m := tc.rts[0].Metrics().Snapshot()
	if m.ReadOnlyCommits != 1 || m.ReadMsgs != 3 || m.Retrieves != 3 {
		t.Fatalf("read-only commits %d, read msgs %d, retrieves %d; want 1, 3, 3",
			m.ReadOnlyCommits, m.ReadMsgs, m.Retrieves)
	}
}

// TestWaveDecidesPerEntry: the entries of one wave meet different fates at
// their owners. x lives on node 1, y on node 2, z on node 3; node 0 fetches
// all three while some are commit-locked.
func TestWaveDecidesPerEntry(t *testing.T) {
	commits := AbortCause(numAbortCauses) // sentinel: the fetch succeeds
	cases := []struct {
		name     string
		locked   []object.ID
		tfaOwner bool          // y's owner runs plain TFA, which denies every conflict
		backoff  time.Duration // the backoff RTS assigns (the reader's expected remaining time; < 0: estimate overrun)
		release  bool          // free y once the reader is queued on it
		want     AbortCause
	}{
		{name: "enqueued and handed off", locked: []object.ID{"y"}, backoff: time.Hour, release: true, want: commits},
		{name: "denied", locked: []object.ID{"x", "y"}, tfaOwner: true, backoff: time.Hour, want: AbortDenied},
		{name: "park times out", locked: []object.ID{"y"}, backoff: 5 * time.Millisecond, want: AbortQueueTimeout},
		// An overrun estimate: the owner parks the reader for about as long
		// as its attempt has run, not for a quarter of the hour-long estimate.
		{name: "park after an overrun estimate times out", locked: []object.ID{"y"}, backoff: -time.Minute, want: AbortQueueTimeout},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			node := 0
			tc := newTestCluster(t, 4, nil, func() sched.Policy {
				node++
				if c.tfaOwner && node-1 == 2 {
					return sched.NewTFA()
				}
				return core.New(core.Options{CLThreshold: 5})
			})
			ctx := context.Background()
			seed(t, tc, map[object.ID]int{"x": 1, "y": 2, "z": 3})
			owner := map[object.ID]*Runtime{"x": tc.rts[1], "y": tc.rts[2], "z": tc.rts[3]}
			for _, oid := range c.locked {
				lockObject(t, owner[oid], oid)
			}
			var msgs kindCounter
			tc.net.SetInterceptor(msgs.intercept)

			reader := tc.rts[0]
			tx := manualTxn(reader, time.Hour, time.Hour+c.backoff)
			done := make(chan error, 1)
			go func() { done <- tx.fetchMany(ctx, []object.ID{"x", "y", "z"}, sched.Read) }()
			if c.release {
				rts := owner["y"].Policy().(*core.RTS)
				waitFor(t, func() bool { return rts.QueueLen("y") == 1 })
				unlockAndServe(owner["y"], "y")
			}
			err := <-done

			if c.want == commits {
				if err != nil {
					t.Fatal(err)
				}
				for oid, want := range map[object.ID]int64{"x": 10, "y": 20, "z": 30} {
					if e := tx.entries[oid]; e == nil || e.val.(*box).N != want {
						t.Fatalf("entry %s = %+v, want %d", oid, e, want)
					}
				}
				if p := reader.Metrics().Snapshot().Pushes; p != 1 {
					t.Fatalf("pushes = %d, want 1", p)
				}
			} else {
				if got := abortCause(t, err); got != c.want {
					t.Fatalf("abort cause %v, want %v", got, c.want)
				}
				if len(tx.entries) != 0 {
					t.Fatalf("an aborted wave adopted %d entries", len(tx.entries))
				}
			}
			if got := msgs.count(KindRetrieve); got != 3 {
				t.Fatalf("%d retrieve requests, want 3", got)
			}
			reader.waitMu.Lock()
			left := len(reader.waiters)
			reader.waitMu.Unlock()
			if left != 0 {
				t.Fatalf("%d waiters still registered after the wave", left)
			}

			// A hand-off that comes for the abandoned wave finds no waiter
			// and is declined, so the owner can serve its next requester.
			if c.want != commits {
				late := c.locked[0]
				unlockAndServe(owner[late], late)
				waitFor(t, func() bool { return msgs.count(KindDecline) == 1 })
				if msgs.count(KindPush) != 1 {
					t.Fatalf("pushes sent = %d, want 1", msgs.count(KindPush))
				}
			}
		})
	}
}

// homedAt returns an object ID whose home directory, in a cluster of n nodes,
// is node home — so a test decides which directory requests cross the fabric
// (a node calling its own shard sends nothing).
func homedAt(t *testing.T, n, home int) object.ID {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if oid := object.ID(fmt.Sprintf("x%d", i)); cc.HomeOf(oid, n) == transport.NodeID(home) {
			return oid
		}
	}
	t.Fatalf("no object ID homed at node %d of %d", home, n)
	return ""
}

// homedAtEach returns one object ID per entry of homes, all distinct, each
// homed at that node in a cluster of n nodes.
func homedAtEach(t *testing.T, n int, homes ...int) []object.ID {
	t.Helper()
	var ids []object.ID
	for i := 0; i < 10000 && len(ids) < len(homes); i++ {
		if oid := object.ID(fmt.Sprintf("x%d", i)); cc.HomeOf(oid, n) == transport.NodeID(homes[len(ids)]) {
			ids = append(ids, oid)
		}
	}
	if len(ids) < len(homes) {
		t.Fatalf("no object IDs homed at nodes %v of %d", homes, n)
	}
	return ids
}

// TestStaleHintFollowsMovedTo: node 2 holds a hint that x is on node 0, but
// node 1 has since committed a write and taken x. Node 0's reply names node
// 1, from its locator, and the next wave goes there directly — no directory
// message — whether node 2 retrieves x, validates its read of x at commit,
// or acquires x's commit lock to commit a write of it. When node 0's
// locator is wrong or has no entry, the home directory settles it one hop
// later. x is homed at node 3, which never holds it, so every lookup and
// retrieve node 2 makes is a message the interceptor sees; node 4 never
// hears of x, so a pointer to it leads nowhere.
func TestStaleHintFollowsMovedTo(t *testing.T) {
	moved := func(*Runtime, object.ID) {}
	cases := []struct {
		name          string
		step          string                             // retrieve, validate or acquire
		record        func(owner0 *Runtime, x object.ID) // tamper with node 0's locator
		wantLookups   int
		wantRetrieves int
		wantLocks     int // locking retrieves
	}{
		{name: "moved-to followed", step: "retrieve", record: moved, wantLookups: 0, wantRetrieves: 2},
		{name: "lying", step: "retrieve", record: func(rt *Runtime, x object.ID) { rt.locator.NoteOwner(x, 4) },
			wantLookups: 1, wantRetrieves: 3},
		{name: "absent", step: "retrieve", record: func(rt *Runtime, x object.ID) { rt.locator.InvalidateHint(x) }, wantLookups: 1, wantRetrieves: 2},
		// The commit meets node 0's Moved and finds x changed at node 1: one
		// validation abort, and the retry retrieves x from node 1. A commit
		// that writes x locks it at node 0, then at node 1, which hands it
		// over; it aborts, and its retry finds x here.
		{name: "validate", step: "validate", record: moved, wantLookups: 0, wantRetrieves: 1},
		{name: "acquire", step: "acquire", record: moved, wantLookups: 0, wantRetrieves: 0, wantLocks: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestCluster(t, 5, nil, nil)
			ctx := context.Background()
			x := homedAt(t, 5, 3)
			seed(t, tc, map[object.ID]int{x: 0, "y": 2})
			var msgs kindCounter
			move := func() {
				if err := tc.rts[1].Atomic(ctx, "w", func(tx *Txn) error {
					return tx.Write(ctx, x, &box{N: 7})
				}); err != nil {
					t.Fatal(err)
				}
				c.record(tc.rts[0], x)
				tc.net.SetInterceptor(msgs.intercept)
			}

			if c.step == "retrieve" {
				readBox(t, tc.rts[2], x) // node 2 learns: x is on node 0
				move()
				if got := readBox(t, tc.rts[2], x); got != 7 {
					t.Fatalf("read %d, want 7", got)
				}
				if a := tc.rts[2].Metrics().Snapshot().TotalAborts(); a != 0 {
					t.Fatalf("chasing the hint cost %d aborts", a)
				}
			} else {
				attempts := 0
				err := tc.rts[2].Atomic(ctx, "rw", func(tx *Txn) error {
					attempts++
					if _, err := tx.Read(ctx, x); err != nil {
						return err
					}
					w := object.ID("y")
					if c.step == "acquire" {
						w = x
					}
					if err := tx.Write(ctx, w, &box{N: 8}); err != nil {
						return err
					}
					if attempts == 1 {
						move()
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				m := tc.rts[2].Metrics().Snapshot()
				if attempts != 2 || m.TotalAborts() != 1 || m.Aborts[AbortValidation] != 1 {
					t.Fatalf("%d attempts, aborts %v; want 2 attempts, one validation abort", attempts, m.Aborts)
				}
			}
			if got := msgs.count(cc.KindLookupBatch); got != c.wantLookups {
				t.Fatalf("%d directory lookups, want %d", got, c.wantLookups)
			}
			if got := msgs.count(KindRetrieve); got != c.wantRetrieves || got > maxOwnerHops {
				t.Fatalf("%d retrieves, want %d", got, c.wantRetrieves)
			}
			if got := msgs.count(kindLockingRetrieve); got != c.wantLocks {
				t.Fatalf("%d locking retrieves, want %d", got, c.wantLocks)
			}
		})
	}
}

// observer records which objects a node's scheduler was asked to observe.
type observer struct {
	sched.Policy
	mu   sync.Mutex
	seen map[object.ID]int
}

func (o *observer) ObserveRequest(oid object.ID, txid uint64) int {
	o.mu.Lock()
	o.seen[oid]++
	o.mu.Unlock()
	return o.Policy.ObserveRequest(oid, txid)
}

// TestRetrieveObservesOnlyOwnedObjects: a retrieve that chased a stale hint
// to a node that no longer owns the object must not count towards that
// object's contention level there.
func TestRetrieveObservesOnlyOwnedObjects(t *testing.T) {
	var observers []*observer
	tc := newTestCluster(t, 2, nil, func() sched.Policy {
		o := &observer{Policy: sched.NewTFA(), seen: map[object.ID]int{}}
		observers = append(observers, o)
		return o
	})
	seed(t, tc, map[object.ID]int{"here": 0})
	body, err := tc.rts[1].ep.Call(context.Background(), 0, KindRetrieve,
		retrieveReq{TxID: 9, Mode: sched.Read, Oids: []object.ID{"gone", "here"}})
	if err != nil {
		t.Fatal(err)
	}
	res := body.(retrieveResp).Results
	if len(res) != 2 || res[0].Status != statusNotOwner || res[1].Status != statusOK {
		t.Fatalf("results = %+v, want [not-owner, ok]", res)
	}
	o := observers[0]
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.seen["gone"] != 0 || o.seen["here"] != 1 {
		t.Fatalf("observed %v, want only the owned object, once", o.seen)
	}
}

// TestWaveForwardsOnce: a transaction that holds e (from node 1) fetches c
// and d from nodes 2 and 3, each committed anew since its start. The wave
// takes one forwarding step, to the newer version, d's: one validation wave
// covering e and the copy from the owner that reported the smaller clock.
func TestWaveForwardsOnce(t *testing.T) {
	tc := newTestCluster(t, 4, nil, nil)
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"e": 1, "c": 2, "d": 3})

	// With the owners already known the wave sends no directory lookup, so
	// each owner's clock reaches node 0 only in its own retrieve reply.
	tc.rts[0].Locator().NoteOwner("c", 2)
	tc.rts[0].Locator().NoteOwner("d", 3)

	var msgs kindCounter
	var start, forwarded uint64
	err := tc.rts[0].Atomic(ctx, "reader", func(tx *Txn) error {
		if _, err := tx.Read(ctx, "e"); err != nil {
			return err
		}
		start = tx.start
		// c and d are committed anew at their owners, whose clocks have
		// run ahead: d's version is the newest.
		for i := 0; i < 5; i++ {
			tc.rts[2].ep.Clock().Tick()
		}
		for i := 0; i < 9; i++ {
			tc.rts[3].ep.Clock().Tick()
		}
		for oid, owner := range map[object.ID]int{"c": 2, "d": 3} {
			if err := tc.rts[owner].Atomic(ctx, "w", func(w *Txn) error { return w.Update(ctx, oid, bump) }); err != nil {
				return err
			}
		}
		ahead := tc.rts[3].Store().State("d").Ver.Clock
		tc.net.SetInterceptor(holdRetrieves(t, 2, msgs.intercept))
		_, err := tx.ReadMany(ctx, []object.ID{"c", "d"})
		forwarded = tx.start
		if err == nil && forwarded != ahead {
			t.Errorf("start forwarded %d -> %d, want d's version %d", start, forwarded, ahead)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if forwarded <= start {
		t.Fatalf("start %d did not advance (was %d)", forwarded, start)
	}
	if got := msgs.count(KindCheckVersionBatch); got != 2 {
		t.Fatalf("%d validation messages, want 2 (e's owner and c's, one wave)", got)
	}
	if m := tc.rts[0].Metrics().Snapshot(); m.TotalAborts() != 0 {
		t.Fatalf("aborts = %d, want 0", m.TotalAborts())
	}
}

// TestWaveForwardingAbortsInnermostHolder is TestForwardingAbortsStaleRead
// with the second read a ReadMany inside a closed-nested transaction: x is
// overwritten after it was read, the wave for y and z meets a clock ahead
// of the start, and the forwarding validation aborts the innermost level
// that holds the stale x — the inner transaction alone when it read x
// itself, the root when the root did.
func TestWaveForwardingAbortsInnermostHolder(t *testing.T) {
	cases := []struct {
		name               string
		parentReadsX       bool
		wantRoot, wantNest int // attempts of the root and of the inner transaction
	}{
		{name: "inner holds the stale read", parentReadsX: false, wantRoot: 1, wantNest: 2},
		{name: "root holds the stale read", parentReadsX: true, wantRoot: 2, wantNest: 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestCluster(t, 3, nil, nil)
			ctx := context.Background()
			seed(t, tc, map[object.ID]int{"x": 0, "y": 0, "z": 1})

			rootRuns, nestRuns := 0, 0
			var sawX int64
			err := tc.rts[2].Atomic(ctx, "reader", func(tx *Txn) error {
				rootRuns++
				if c.parentReadsX {
					if _, err := tx.Read(ctx, "x"); err != nil {
						return err
					}
				}
				return tx.Atomic(ctx, "inner", func(in *Txn) error {
					nestRuns++
					vx, err := in.Read(ctx, "x")
					if err != nil {
						return err
					}
					sawX = vx.(*box).N
					if nestRuns == 1 {
						// Node 0 commits a new x between the reads; its clock
						// ticks past the reader's start.
						if err := tc.rts[0].Atomic(ctx, "writer", func(w *Txn) error {
							return w.Write(ctx, "x", &box{N: 2})
						}); err != nil {
							return err
						}
					}
					_, err = in.ReadMany(ctx, []object.ID{"y", "z"})
					return err
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			if rootRuns != c.wantRoot || nestRuns != c.wantNest {
				t.Fatalf("root ran %d times, inner %d; want %d, %d", rootRuns, nestRuns, c.wantRoot, c.wantNest)
			}
			if sawX != 2 {
				t.Fatalf("final x = %d, want 2", sawX)
			}
		})
	}
}

// commitMidRetrieve is a scheduler policy that, the first time its node
// serves object on, starts commit from inside the retrieve handler's read —
// between two entries' copies, were they read one at a time — on a
// goroutine of its own (the read holds the store, which the commit needs),
// and closes done once it has committed.
type commitMidRetrieve struct {
	sched.Policy
	on     object.ID
	fired  atomic.Bool
	commit func()
	done   chan struct{}
}

func (p *commitMidRetrieve) ObserveRequest(oid object.ID, txid uint64) int {
	if oid == p.on && p.fired.CompareAndSwap(false, true) {
		go func() {
			defer close(p.done)
			p.commit()
		}()
	}
	return p.Policy.ObserveRequest(oid, txid)
}

// move is the transfer both consistency tests commit: one unit from a to b.
func move(ctx context.Context, rt *Runtime, a, b object.ID) error {
	return rt.Atomic(ctx, "move", func(tx *Txn) error {
		if err := tx.Update(ctx, a, func(v object.Value) object.Value { v.(*box).N--; return v }); err != nil {
			return err
		}
		return tx.Update(ctx, b, func(v object.Value) object.Value { v.(*box).N++; return v })
	})
}

// audit reads a and b in one read-only transaction and returns the view it
// committed.
func audit(ctx context.Context, rt *Runtime, a, b object.ID) (na, nb int64, err error) {
	err = rt.Atomic(ctx, "audit", func(tx *Txn) error {
		vals, err := tx.ReadMany(ctx, []object.ID{a, b})
		if err == nil {
			na, nb = vals[0].(*box).N, vals[1].(*box).N
		}
		return err
	})
	return na, nb, err
}

// TestRetrieveReplyIsAConsistentCut: node 0 owns a (100) and b (0); while it
// serves node 2's retrieve for both, a transfer a→b starts inside the read
// and commits before the reply leaves — by a local transaction, or by node 1,
// which takes both objects away. The reply is the cut from before the
// transfer, at a clock the
// transfer's version is above, so the audit commits a=100, b=0. A reply
// carrying the old a beside the new b (or beside a pointer to it) at a clock
// that covers the commit would be adopted unvalidated, and the read-only audit
// would commit a sum of 101.
func TestRetrieveReplyIsAConsistentCut(t *testing.T) {
	cases := []struct {
		name      string
		committer int
	}{
		{name: "local committer", committer: 0},
		{name: "remote committer", committer: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			var tc *testCluster
			var commitErr error
			hook := &commitMidRetrieve{Policy: sched.NewTFA(), on: "t/a", done: make(chan struct{}), commit: func() {
				commitErr = move(ctx, tc.rts[c.committer], "t/a", "t/b")
			}}
			tc = newTestCluster(t, 3, nil, inOrder(hook, sched.NewTFA(), sched.NewTFA()))
			for oid, n := range map[object.ID]int64{"t/a": 100, "t/b": 0} {
				if err := tc.rts[0].CreateRoot(ctx, oid, &box{N: n}); err != nil {
					t.Fatal(err)
				}
			}
			// Hold node 0's reply to node 2 until the transfer has committed.
			tc.net.SetInterceptor(func(m *transport.Message) bool {
				if m.Kind == KindRetrieve && m.IsReply && m.From == 0 && m.To == 2 && hook.fired.Load() {
					select {
					case <-hook.done:
					case <-time.After(5 * time.Second):
						t.Error("the transfer did not commit within 5 s")
					}
				}
				return true
			})

			a, b, err := audit(ctx, tc.rts[2], "t/a", "t/b")
			if err != nil || commitErr != nil {
				t.Fatalf("audit: %v; transfer: %v", err, commitErr)
			}
			if a != 100 || b != 0 {
				t.Fatalf("audit committed a=%d b=%d (sum %d), want a=100 b=0", a, b, a+b)
			}
		})
	}
}

// midHandOff is a scheduler policy that, once armed, runs between from inside
// the first observation of object on: where handOff has read the copy and the
// clock it hands off and not yet pushed them.
type midHandOff struct {
	sched.Policy
	on      object.ID
	armed   atomic.Bool
	between func()
}

func (p *midHandOff) ObserveRequest(oid object.ID, txid uint64) int {
	if oid == p.on && p.armed.CompareAndSwap(true, false) {
		p.between()
	}
	return p.Policy.ObserveRequest(oid, txid)
}

// TestHandOffPushIsAConsistentCut: node 2's audit reads t/a, which is
// commit-locked at node 0, parks, and is handed t/a when the lock goes; then
// it reads t/b. Either a local transfer a→b commits after the hand-off read
// t/a — a push of the old a at a clock covering the commit would be adopted
// unvalidated, and the read-only audit would commit a sum of 101 — or another
// transaction locks t/a before the hand-off reads it, and the parked audit
// stays queued for that lock's holder to serve.
func TestHandOffPushIsAConsistentCut(t *testing.T) {
	cases := []struct {
		name string
		// between runs from inside the hand-off, after its read; relock after
		// the lock is gone and before the hand-off reads.
		between, relock func(tc *testCluster) error
	}{
		{name: "commit in between", between: func(tc *testCluster) error {
			return move(context.Background(), tc.rts[0], "t/a", "t/b")
		}},
		{name: "lock in between", relock: func(tc *testCluster) error {
			ver := tc.rts[0].Store().State("t/a").Ver
			if r := lockOne(tc.rts[0].Store(), "t/a", fakeValidator+1, ver); r != object.LockOK {
				return fmt.Errorf("lock: %v", r)
			}
			return nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			var tc *testCluster
			var betweenErr error
			var hook *midHandOff
			rts := core.New(core.Options{CLThreshold: 5})
			node := 0
			tc = newTestCluster(t, 3, nil, func() sched.Policy {
				node++
				if node-1 != 0 {
					return sched.NewTFA()
				}
				hook = &midHandOff{Policy: rts, on: "t/a", between: func() { betweenErr = c.between(tc) }}
				return hook
			})
			for oid, n := range map[object.ID]int64{"t/a": 100, "t/b": 0} {
				if err := tc.rts[0].CreateRoot(ctx, oid, &box{N: n}); err != nil {
					t.Fatal(err)
				}
			}
			tc.rts[2].Stats().RecordCommit("audit", 500*time.Millisecond) // a comfortable backoff
			lockObject(t, tc.rts[0], "t/a")

			type view struct{ a, b int64 }
			done := make(chan view, 1)
			go func() {
				var v view
				err := tc.rts[2].Atomic(ctx, "audit", func(tx *Txn) error {
					va, err := tx.Read(ctx, "t/a")
					if err != nil {
						return err
					}
					vb, err := tx.Read(ctx, "t/b")
					if err != nil {
						return err
					}
					v = view{va.(*box).N, vb.(*box).N}
					return nil
				})
				if err != nil {
					t.Error(err)
				}
				done <- v
			}()
			waitFor(t, func() bool { return rts.QueueLen("t/a") == 1 })
			if c.relock != nil {
				tc.rts[0].Store().Unlock("t/a", fakeValidator)
				if err := c.relock(tc); err != nil {
					t.Fatal(err)
				}
				tc.rts[0].handOff("t/a")
				if q := rts.QueueLen("t/a"); q != 1 {
					t.Fatalf("queue holds %d requesters after a hand-off that met a lock, want the audit still queued", q)
				}
				tc.rts[0].Store().Unlock("t/a", fakeValidator+1)
				tc.rts[0].handOff("t/a")
			} else {
				hook.armed.Store(true)
				unlockAndServe(tc.rts[0], "t/a")
				if betweenErr != nil {
					t.Fatal(betweenErr)
				}
			}
			if v := <-done; v.a+v.b != 100 {
				t.Fatalf("audit committed a=%d b=%d (sum %d), want sum 100", v.a, v.b, v.a+v.b)
			}
			if m := tc.rts[2].Metrics().Snapshot(); m.Pushes != 1 {
				t.Fatalf("pushes = %d, want 1", m.Pushes)
			}
		})
	}
}

// TestROSnapshotConsistencyUnderWriters is the end-to-end guard for the
// same property: writers on two nodes keep moving value between two objects
// (conserving the sum, and dragging both objects back and forth) while a
// third node's read-only audits assert every view they commit is consistent.
func TestROSnapshotConsistencyUnderWriters(t *testing.T) {
	const total = 100
	tc := newTestCluster(t, 3, transport.UniformLatency(50*time.Microsecond), nil)
	ctx := context.Background()
	for oid, n := range map[object.ID]int64{"sc/a": total, "sc/b": 0} {
		if err := tc.rts[0].CreateRoot(ctx, oid, &box{N: n}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	werrs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func() {
			for {
				select {
				case <-stop:
					werrs <- nil
					return
				default:
				}
				if err := move(ctx, tc.rts[w], "sc/a", "sc/b"); err != nil {
					werrs <- err
					return
				}
			}
		}()
	}

	for i := 0; i < 60; i++ {
		a, b, err := audit(ctx, tc.rts[2], "sc/a", "sc/b")
		if err != nil {
			t.Fatalf("audit %d: %v", i, err)
		}
		if a+b != total {
			t.Fatalf("audit %d committed a torn view: a=%d b=%d sum=%d, want %d", i, a, b, a+b, total)
		}
	}
	close(stop)
	for w := 0; w < 2; w++ {
		if err := <-werrs; err != nil {
			t.Fatalf("writer: %v", err)
		}
	}
}
