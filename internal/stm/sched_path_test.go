package stm

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstm/internal/core"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
)

// These tests drive the owner-side scheduling path deterministically by
// holding an object's commit lock directly (simulating a transaction in
// validation) and observing how requesters are denied, enqueued, handed
// the object, or timed out.

const fakeValidator uint64 = 0xf00d

// lockOne commit-locks one object through the store's one lock entry.
func lockOne(st *object.Store, id object.ID, tx uint64, ver object.Version) object.LockResult {
	r, _ := st.LockBatch(tx, []object.LockEntry{{ID: id, Expect: ver}})
	return r[0]
}

// isLocked reports whether id is owned by st and commit-locked.
func isLocked(st *object.Store, id object.ID) bool {
	c := st.State(id)
	return c.Owned && c.LockedBy != 0
}

func lockObject(t *testing.T, rt *Runtime, oid object.ID) {
	t.Helper()
	c := rt.Store().State(oid)
	ver := c.Ver
	if !c.Owned {
		t.Fatalf("object %q not owned", oid)
	}
	if res := lockOne(rt.Store(), oid, fakeValidator, ver); res != object.LockOK {
		t.Fatalf("lock: %v", res)
	}
}

func unlockAndServe(rt *Runtime, oid object.ID) {
	rt.Store().Unlock(oid, fakeValidator)
	rt.handOff(oid)
}

func TestTFADeniedAbortRetry(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil) // TFA policy
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	lockObject(t, tc.rts[0], "x")

	done := make(chan error, 1)
	go func() {
		done <- tc.rts[1].Atomic(ctx, "w", func(tx *Txn) error {
			return tx.Write(ctx, "x", &box{N: 2})
		})
	}()

	// The requester must rack up denied aborts while the lock is held.
	deadline := time.Now().Add(5 * time.Second)
	for tc.rts[1].Metrics().Snapshot().Aborts[AbortDenied] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no denied aborts observed")
		}
		time.Sleep(time.Millisecond)
	}
	unlockAndServe(tc.rts[0], "x")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m := tc.rts[1].Metrics().Snapshot()
	if m.Commits != 1 || m.Aborts[AbortDenied] == 0 {
		t.Fatalf("metrics %+v", m)
	}
	// TFA never enqueues.
	if o := tc.rts[0].Metrics().Snapshot(); o.Enqueues != 0 {
		t.Fatalf("TFA enqueued %d requests", o.Enqueues)
	}
}

func newRTSCluster(t *testing.T, n int, opts core.Options) *testCluster {
	return newTestCluster(t, n, nil, func() sched.Policy { return core.New(opts) })
}

func TestRTSEnqueueAndHandOff(t *testing.T) {
	tc := newRTSCluster(t, 2, core.Options{CLThreshold: 5})
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	// Teach node 1's stats table a long expected execution time so the
	// assigned backoff is comfortably large.
	tc.rts[1].Stats().RecordCommit("w", 500*time.Millisecond)

	lockObject(t, tc.rts[0], "x")
	done := make(chan error, 1)
	go func() {
		done <- tc.rts[1].Atomic(ctx, "w", func(tx *Txn) error {
			return tx.Update(ctx, "x", func(v object.Value) object.Value {
				v.(*box).N = 2
				return v
			})
		})
	}()

	// Wait until the requester is parked in the owner's queue.
	rts := tc.rts[0].Policy().(*core.RTS)
	deadline := time.Now().Add(5 * time.Second)
	for rts.QueueLen("x") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("requester never enqueued")
		}
		time.Sleep(time.Millisecond)
	}

	// Release: the object is handed straight to the parked requester.
	unlockAndServe(tc.rts[0], "x")
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if m := tc.rts[0].Metrics().Snapshot(); m.Enqueues != 1 {
		t.Fatalf("owner enqueues = %d, want 1", m.Enqueues)
	}
	m1 := tc.rts[1].Metrics().Snapshot()
	if m1.Pushes != 1 {
		t.Fatalf("requester pushes = %d, want 1", m1.Pushes)
	}
	if m1.Commits != 1 {
		t.Fatalf("commits = %d", m1.Commits)
	}
	// The enqueued transaction committed WITHOUT aborting: this is RTS's
	// whole point.
	if got := m1.TotalAborts(); got != 0 {
		t.Fatalf("aborts = %d, want 0 (enqueued, not aborted)", got)
	}
	if rts.QueueLen("x") != 0 {
		t.Fatal("queue not drained")
	}
}

func TestRTSQueueTimeoutAborts(t *testing.T) {
	tc := newRTSCluster(t, 2, core.Options{CLThreshold: 5})
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	// Short expected time → short backoff → timeout while lock held.
	tc.rts[1].Stats().RecordCommit("w", 2*time.Millisecond)

	lockObject(t, tc.rts[0], "x")
	done := make(chan error, 1)
	go func() {
		done <- tc.rts[1].Atomic(ctx, "w", func(tx *Txn) error {
			return tx.Write(ctx, "x", &box{N: 2})
		})
	}()

	deadline := time.Now().Add(5 * time.Second)
	for tc.rts[1].Metrics().Snapshot().Aborts[AbortQueueTimeout] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no queue-timeout abort observed")
		}
		time.Sleep(time.Millisecond)
	}
	unlockAndServe(tc.rts[0], "x")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// manualTxn fabricates a root transaction with a controlled start time, so
// tests can make the requester look arbitrarily long-running to RTS.
func manualTxn(rt *Runtime, ranFor, expectedTotal time.Duration) *Txn {
	tx := &Txn{
		rt:           rt,
		id:           rt.nextTxID(),
		name:         "manual",
		began:        time.Now().Add(-ranFor),
		attemptBegan: time.Now(),
		expected:     expectedTotal,
		start:        rt.ep.Clock().Now(),
		entries:      make(map[object.ID]*objEntry),
	}
	tx.root = tx
	return tx
}

func TestRTSDeclineForwardsToNext(t *testing.T) {
	tc := newRTSCluster(t, 3, core.Options{CLThreshold: 5})
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	lockObject(t, tc.rts[0], "x")
	rts := tc.rts[0].Policy().(*core.RTS)

	// Requester A: long-running, parks first, then abandons its wait.
	txA := manualTxn(tc.rts[1], time.Hour, 2*time.Hour)
	ctxA, cancelA := context.WithCancel(ctx)
	doneA := make(chan error, 1)
	go func() {
		err := txA.fetchMany(ctxA, []object.ID{"x"}, sched.Write)
		doneA <- err
	}()
	waitFor(t, func() bool { return rts.QueueLen("x") == 1 })

	// Requester B: even longer-running (elapsed must exceed A's queued
	// backoff), parks behind A.
	txB := manualTxn(tc.rts[2], 3*time.Hour, 4*time.Hour)
	doneB := make(chan error, 1)
	go func() {
		err := txB.fetchMany(ctx, []object.ID{"x"}, sched.Write)
		doneB <- err
	}()
	waitFor(t, func() bool { return rts.QueueLen("x") == 2 })

	// A abandons its wait (its waiter deregisters).
	cancelA()
	if err := <-doneA; err == nil {
		t.Fatal("cancelled fetch reported success")
	}

	// Release: push goes to A first, A declines, owner forwards to B.
	unlockAndServe(tc.rts[0], "x")
	if err := <-doneB; err != nil {
		t.Fatal(err)
	}
	if txB.entries["x"] == nil || txB.entries["x"].val.(*box).N != 1 {
		t.Fatalf("B did not receive the object: %+v", txB.entries["x"])
	}
	if rts.QueueLen("x") != 0 {
		t.Fatal("queue not drained after decline forwarding")
	}
}

func TestRTSReadersReleasedTogether(t *testing.T) {
	tc := newRTSCluster(t, 3, core.Options{CLThreshold: 10})
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "x", &box{N: 7}); err != nil {
		t.Fatal(err)
	}
	lockObject(t, tc.rts[0], "x")
	rts := tc.rts[0].Policy().(*core.RTS)

	var wg sync.WaitGroup
	results := make(chan error, 2)
	ranFor := []time.Duration{time.Hour, 3 * time.Hour}
	txs := []*Txn{
		manualTxn(tc.rts[1], ranFor[0], 2*time.Hour),
		manualTxn(tc.rts[2], ranFor[1], 4*time.Hour),
	}
	for i, tx := range txs {
		wg.Add(1)
		go func(tx *Txn, i int) {
			defer wg.Done()
			// Park the reads one after another to keep queue order stable.
			err := tx.fetchMany(ctx, []object.ID{"x"}, sched.Read)
			results <- err
		}(tx, i)
		waitFor(t, func() bool { return rts.QueueLen("x") == i+1 })
	}
	unlockAndServe(tc.rts[0], "x")
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Both readers were served by the single release.
	if rts.QueueLen("x") != 0 {
		t.Fatal("queue not drained by read broadcast")
	}
	p1 := tc.rts[1].Metrics().Snapshot().Pushes
	p2 := tc.rts[2].Metrics().Snapshot().Pushes
	if p1 != 1 || p2 != 1 {
		t.Fatalf("pushes = %d, %d; want 1 each", p1, p2)
	}
	for _, tx := range txs {
		if tx.entries["x"] == nil || tx.entries["x"].val.(*box).N != 7 {
			t.Fatalf("reader missing object: %+v", tx.entries["x"])
		}
	}
}

// actInConflict is RTS with one action started inside its first
// OnConflict, after the retrieve read the object locked and before the
// decision. The action runs on a goroutine of its own, and OnConflict waits
// for it up to 200 ms before deciding: an owner that decides with its store
// unlocked lets the action land between the read and the enqueue, and one
// that decides under the store's mutex holds the action back until the
// enqueue is done (a store call made here directly would deadlock).
type actInConflict struct {
	*core.RTS
	fired atomic.Bool
	act   func()
}

func (p *actInConflict) OnConflict(req sched.Request) sched.Decision {
	if p.fired.CompareAndSwap(false, true) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.act()
		}()
		select {
		case <-done:
		case <-time.After(200 * time.Millisecond):
		}
	}
	return p.RTS.OnConflict(req)
}

// inOrder is a policy factory for newTestCluster: node i gets ps[i].
func inOrder(ps ...sched.Policy) func() sched.Policy {
	node := 0
	return func() sched.Policy {
		node++
		return ps[node-1]
	}
}

// TestLockGoneBeforeTheEnqueueIsHandedOff: node 1's write finds x locked at
// node 0, and a release of the lock starts before the scheduler enqueues the
// writer. Whichever lands first, the writer is pushed x at once instead of
// sitting out its backoff and aborting with queue-timeout.
func TestLockGoneBeforeTheEnqueueIsHandedOff(t *testing.T) {
	ctx := context.Background()
	var tc *testCluster
	p := &actInConflict{RTS: core.New(core.Options{CLThreshold: 5})}
	p.act = func() { unlockAndServe(tc.rts[0], "x") }
	tc = newTestCluster(t, 2, nil, inOrder(p, sched.NewTFA()))
	if err := tc.rts[0].CreateRoot(ctx, "x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	tc.rts[1].Stats().RecordCommit("w", 300*time.Millisecond)
	lockObject(t, tc.rts[0], "x")

	if err := tc.rts[1].Atomic(ctx, "w", func(tx *Txn) error {
		return tx.Write(ctx, "x", &box{N: 2})
	}); err != nil {
		t.Fatal(err)
	}
	m := tc.rts[1].Metrics().Snapshot()
	if m.Aborts[AbortQueueTimeout] != 0 || m.Pushes != 1 {
		t.Fatalf("queue-timeout aborts = %d, pushes = %d; want 0 and 1", m.Aborts[AbortQueueTimeout], m.Pushes)
	}
	if e := tc.rts[0].Metrics().Snapshot().Enqueues; e != 1 {
		t.Fatalf("owner enqueues = %d, want 1", e)
	}
}

func TestQueueMigratesWithOwnership(t *testing.T) {
	// Requester C parks at node 0 while node 1's transaction is
	// committing object x; the commit migrates x (and the queue) to node
	// 1, which must then hand the object to C.
	tc := newRTSCluster(t, 3, core.Options{CLThreshold: 5})
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	tc.rts[2].Stats().RecordCommit("w", time.Second)

	// Node 1 fetches x, then we lock x at node 0 on node 1's behalf to
	// freeze it "validating" while C requests.
	var ver object.Version
	if err := tc.rts[1].Atomic(ctx, "prefetch", func(tx *Txn) error {
		_, err := tx.Read(ctx, "x")
		if err == nil {
			ver = tx.entries["x"].ver
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	committerTx := uint64(0xbeef)
	if res := lockOne(tc.rts[0].Store(), "x", committerTx, ver); res != object.LockOK {
		t.Fatalf("lock: %v", res)
	}

	// C parks at node 0.
	rts0 := tc.rts[0].Policy().(*core.RTS)
	doneC := make(chan error, 1)
	go func() {
		doneC <- tc.rts[2].Atomic(ctx, "w", func(tx *Txn) error {
			return tx.Update(ctx, "x", func(v object.Value) object.Value {
				v.(*box).N += 100
				return v
			})
		})
	}()
	waitFor(t, func() bool { return rts0.QueueLen("x") == 1 })

	if queued, err := publishX(ctx, tc, committerTx, 50); err != nil {
		t.Fatal(err)
	} else if queued != 1 {
		t.Fatalf("migration carried %d requests, want C's", queued)
	}

	if err := <-doneC; err != nil {
		t.Fatal(err)
	}
	var got int64
	if err := tc.rts[0].Atomic(ctx, "read", func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		got = v.(*box).N
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 150 {
		t.Fatalf("x = %d, want 150 (50 migrated + C's +100)", got)
	}
}

// publishX plays node 1's commit of x, locked at node 0 by committerTx, as
// Txn.commit does: node 1's locking retrieve under committerTx takes x from
// node 0 with its queue (Txn.lockWave), installs it locked and adopts the
// queue, and Txn.releaseLocks tells x's home, publishes x with value n in
// place and hands it off. It returns how many requesters the lock brought.
func publishX(ctx context.Context, tc *testCluster, committerTx uint64, n int64) (int, error) {
	tx := &Txn{rt: tc.rts[1], id: committerTx, lockID: committerTx, entries: map[object.ID]*objEntry{}}
	tx.root = tx
	locked := map[object.ID]transport.NodeID{}
	if _, err := tx.lockWave(ctx, []object.ID{"x"}, locked, nil); err != nil {
		return 0, err
	}
	queued := tc.rts[1].Policy().(*core.RTS).QueueLen("x")
	tx.entries["x"] = &objEntry{val: &box{N: n}}
	newVer := object.Version{Clock: tc.rts[1].ep.Clock().Tick(), Node: 1}
	return queued, tx.releaseLocks(ctx, locked, []object.ID{"x"}, newVer, nil)
}

// TestMigrationBeforeTheEnqueueKeepsTheRequester: node 2's write finds x
// locked at node 0 by node 1's commit, and the commit's publish starts
// migrating x (and its queue) to node 1 before the scheduler enqueues the
// writer. The owner decides under its store's mutex, so the migration waits
// for the enqueue and carries the writer along: node 1 pushes x to it, and
// node 0 keeps no orphaned queue entry.
func TestMigrationBeforeTheEnqueueKeepsTheRequester(t *testing.T) {
	ctx := context.Background()
	var tc *testCluster
	p := &actInConflict{RTS: core.New(core.Options{CLThreshold: 5})}
	committerTx := uint64(0xbeef)
	published := make(chan error, 1)
	p.act = func() {
		_, err := publishX(ctx, tc, committerTx, 50)
		published <- err
	}
	tc = newTestCluster(t, 3, nil, inOrder(p, core.New(core.Options{CLThreshold: 5}), sched.NewTFA()))
	if err := tc.rts[0].CreateRoot(ctx, "x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	tc.rts[2].Stats().RecordCommit("w", 300*time.Millisecond)
	if res := lockOne(tc.rts[0].Store(), "x", committerTx, object.Version{}); res != object.LockOK {
		t.Fatalf("lock: %v", res)
	}

	if err := tc.rts[2].Atomic(ctx, "w", func(tx *Txn) error {
		return tx.Update(ctx, "x", func(v object.Value) object.Value {
			v.(*box).N += 100
			return v
		})
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-published:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the migration never ran: the write met no conflict")
	}
	m := tc.rts[2].Metrics().Snapshot()
	if m.Aborts[AbortQueueTimeout] != 0 || m.Pushes != 1 {
		t.Fatalf("queue-timeout aborts = %d, pushes = %d; want 0 and 1", m.Aborts[AbortQueueTimeout], m.Pushes)
	}
	if n := p.QueueLen("x"); n != 0 {
		t.Fatalf("node 0 still queues %d requesters for x, which it no longer holds", n)
	}
	if got := readBox(t, tc.rts[0], "x"); got != 150 {
		t.Fatalf("x = %d, want 150 (50 published + node 2's +100)", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
