package stm

import (
	"context"
	"sync"
	"testing"
	"time"

	"dstm/internal/core"
	"dstm/internal/object"
	"dstm/internal/sched"
)

// These tests drive the owner-side scheduling path deterministically by
// holding an object's commit lock directly (simulating a transaction in
// validation) and observing how requesters are denied, enqueued, handed
// the object, or timed out.

const fakeValidator uint64 = 0xf00d

// lockAt commit-locks one object through the store's one lock entry.
func lockAt(st *object.Store, id object.ID, tx uint64, ver object.Version) object.LockResult {
	r, _ := st.LockBatch(tx, []object.LockEntry{{ID: id, Expect: ver}})
	return r[0]
}

func lockObject(t *testing.T, rt *Runtime, oid object.ID) {
	t.Helper()
	ver, _, ok := rt.Store().State(oid)
	if !ok {
		t.Fatalf("object %q not owned", oid)
	}
	if res := lockAt(rt.Store(), oid, fakeValidator, ver); res != object.LockOK {
		t.Fatalf("lock: %v", res)
	}
}

func unlockAndServe(rt *Runtime, oid object.ID) {
	rt.Store().Unlock(oid, fakeValidator)
	rt.serveQueue(oid, rt.policy.OnRelease(oid))
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
	if res := lockAt(tc.rts[0].Store(), "x", committerTx, ver); res != object.LockOK {
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

	// Simulate node 1's commit of x: migrate ownership + queue to node 1
	// exactly as Txn.publish does.
	newVer := object.Version{Clock: tc.rts[1].ep.Clock().Tick(), Node: 1}
	moved := []object.ID{"x"}
	body, err := tc.rts[1].ep.Call(ctx, 0, KindCommitObjectBatch, commitObjBatchReq{
		TxID: committerTx, NewOwner: 1, Oids: moved, Moved: moved,
	})
	if err != nil {
		t.Fatal(err)
	}
	results := body.(commitObjBatchResp).Results
	if len(results) != 1 || results[0].Err != "" || len(results[0].Queue) != 1 {
		t.Fatalf("migration results = %+v, want one entry carrying C's request", results)
	}
	queue := results[0].Queue
	if home := tc.rts[1].Locator().Home("x"); home != 0 {
		if _, err := tc.rts[1].ep.Call(ctx, home, KindCommitObjectBatch, commitObjBatchReq{
			TxID: committerTx, NewOwner: 1, Moved: moved,
		}); err != nil {
			t.Fatal(err)
		}
	}
	tc.rts[1].Store().Install("x", &box{N: 50}, newVer)
	tc.rts[1].Policy().AdoptQueue("x", queue)
	tc.rts[1].serveQueue("x", tc.rts[1].Policy().OnRelease("x"))

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
