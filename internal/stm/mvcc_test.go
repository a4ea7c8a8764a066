package stm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
)

// countingPolicy wraps a scheduler policy and counts the entry points a
// read-only transaction must never reach.
type countingPolicy struct {
	sched.Policy
	observes  atomic.Uint64
	conflicts atomic.Uint64
}

func (p *countingPolicy) ObserveRequest(oid object.ID, txid uint64) int {
	p.observes.Add(1)
	return p.Policy.ObserveRequest(oid, txid)
}

func (p *countingPolicy) OnConflict(req sched.Request) sched.Decision {
	p.conflicts.Add(1)
	return p.Policy.OnConflict(req)
}

func TestAtomicROServesRemoteSnapshot(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "ro/x", &box{N: 5}); err != nil {
		t.Fatal(err)
	}
	var got int64
	err := tc.rts[1].AtomicRO(ctx, "snap", func(tx *Txn) error {
		v, err := tx.Read(ctx, "ro/x")
		if err != nil {
			return err
		}
		got = v.(*box).N
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("read %d, want 5", got)
	}
	// The snapshot read must not migrate ownership.
	if !tc.rts[0].Store().Owns("ro/x") {
		t.Fatal("snapshot read moved ownership")
	}
	m := tc.rts[1].Metrics().Snapshot()
	if m.Commits != 1 || m.ReadOnlyCommits != 1 {
		t.Fatalf("commits=%d roCommits=%d, want 1/1", m.Commits, m.ReadOnlyCommits)
	}
	if m.ReadMsgs != 1 {
		t.Fatalf("remote snapshot read cost %d RPCs, want exactly 1", m.ReadMsgs)
	}
	if own := tc.rts[0].Metrics().Snapshot(); own.SnapReads != 1 {
		t.Fatalf("owner served %d snapshot reads, want 1", own.SnapReads)
	}
}

func TestAtomicROLocalReadCostsNoMessages(t *testing.T) {
	tc := newTestCluster(t, 1, nil, nil)
	rt := tc.rts[0]
	ctx := context.Background()
	if err := rt.CreateRoot(ctx, "ro/l", &box{N: 3}); err != nil {
		t.Fatal(err)
	}
	err := rt.AtomicRO(ctx, "snap", func(tx *Txn) error {
		_, err := tx.Read(ctx, "ro/l")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics().Snapshot()
	if m.ReadMsgs != 0 {
		t.Fatalf("local snapshot read cost %d RPCs, want 0", m.ReadMsgs)
	}
	if m.ReadOnlyCommits != 1 {
		t.Fatalf("roCommits=%d, want 1", m.ReadOnlyCommits)
	}
}

// TestPureROPhaseTakesNoLocksNoSchedulerEntries is the PR's acceptance
// check: once the write phase quiesces, a burst of read-only transactions
// (local, remote, and batched) completes with ZERO commit-lock
// acquisitions and ZERO scheduler entries anywhere in the cluster.
func TestPureROPhaseTakesNoLocksNoSchedulerEntries(t *testing.T) {
	const nodes = 3
	policies := make([]*countingPolicy, 0, nodes)
	mk := func() sched.Policy {
		p := &countingPolicy{Policy: sched.NewTFA()}
		policies = append(policies, p)
		return p
	}
	tc := newTestCluster(t, nodes, nil, mk)
	ctx := context.Background()

	var oids []object.ID
	for i := 0; i < 6; i++ {
		oid := object.ID(fmt.Sprintf("ro/obj%d", i))
		oids = append(oids, oid)
		if err := tc.rts[i%nodes].CreateRoot(ctx, oid, &box{N: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Write phase: build up version history on every object.
	for round := 0; round < 3; round++ {
		for i, oid := range oids {
			err := tc.rts[(i+round)%nodes].Atomic(ctx, "w", func(tx *Txn) error {
				return tx.Update(ctx, oid, func(v object.Value) object.Value {
					v.(*box).N++
					return v
				})
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	// Baseline the counters after the write phase, then hook every store to
	// count lock grants during the read-only phase.
	var lockOps atomic.Uint64
	for _, rt := range tc.rts {
		rt.Store().SetTrace(func(op string, id object.ID, tx, a, b uint64) {
			if op == "lock-ok" {
				lockOps.Add(1)
			}
		})
	}
	var baseObserves, baseConflicts, baseEnqueues uint64
	for i, p := range policies {
		baseObserves += p.observes.Load()
		baseConflicts += p.conflicts.Load()
		baseEnqueues += tc.rts[i].Metrics().Snapshot().Enqueues
	}

	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(rt *Runtime) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				err := rt.AtomicRO(ctx, "ro", func(tx *Txn) error {
					if j%2 == 0 {
						_, err := tx.ReadMany(ctx, oids)
						return err
					}
					for _, oid := range oids {
						if _, err := tx.Read(ctx, oid); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(tc.rts[n])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := lockOps.Load(); got != 0 {
		t.Fatalf("read-only phase acquired %d commit locks, want 0", got)
	}
	var observes, conflicts, enqueues uint64
	for i, p := range policies {
		observes += p.observes.Load()
		conflicts += p.conflicts.Load()
		enqueues += tc.rts[i].Metrics().Snapshot().Enqueues
	}
	if observes != baseObserves || conflicts != baseConflicts || enqueues != baseEnqueues {
		t.Fatalf("read-only phase entered the scheduler: observes %d->%d conflicts %d->%d enqueues %d->%d",
			baseObserves, observes, baseConflicts, conflicts, baseEnqueues, enqueues)
	}
	var roCommits uint64
	for _, rt := range tc.rts {
		roCommits += rt.Metrics().Snapshot().ReadOnlyCommits
	}
	if roCommits < nodes*20 {
		t.Fatalf("roCommits = %d, want >= %d", roCommits, nodes*20)
	}
}

func TestROUpgradeOnWrite(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "up/x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	// A read-only attempt that writes transparently joins the ownership
	// protocol: the snapshot read is validated by version at commit.
	err := tc.rts[1].AtomicRO(ctx, "upgrade", func(tx *Txn) error {
		v, err := tx.Read(ctx, "up/x")
		if err != nil {
			return err
		}
		return tx.Write(ctx, "up/x", &box{N: v.(*box).N + 10})
	})
	if err != nil {
		t.Fatal(err)
	}
	m := tc.rts[1].Metrics().Snapshot()
	if m.ROUpgrades == 0 {
		t.Fatal("upgrade not counted")
	}
	if !tc.rts[1].Store().Owns("up/x") {
		t.Fatal("upgraded write did not migrate ownership")
	}
	var got int64
	if err := tc.rts[1].AtomicRO(ctx, "check", func(tx *Txn) error {
		v, err := tx.Read(ctx, "up/x")
		if err != nil {
			return err
		}
		got = v.(*box).N
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Fatalf("read %d, want 11", got)
	}
}

// TestROUpgradeStaleSnapshotAborts pins the validation story: a snapshot
// read served from the version chain (old version) must fail commit-time
// validation after the upgrade, and the retry must converge.
func TestROUpgradeStaleSnapshotAborts(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "up/s", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	err := tc.rts[1].AtomicRO(ctx, "race", func(tx *Txn) error {
		attempts++
		v, err := tx.Read(ctx, "up/s")
		if err != nil {
			return err
		}
		if attempts == 1 {
			// Concurrent writer commits AFTER our snapshot read: our read is
			// now stale relative to the ownership protocol we are about to
			// upgrade into.
			if werr := tc.rts[0].Atomic(ctx, "w", func(wtx *Txn) error {
				return wtx.Update(ctx, "up/s", func(v object.Value) object.Value {
					v.(*box).N += 100
					return v
				})
			}); werr != nil {
				return werr
			}
		}
		return tx.Write(ctx, "up/s", &box{N: v.(*box).N + 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Fatalf("stale upgraded snapshot committed on attempt %d, want a validation retry", attempts)
	}
	m := tc.rts[1].Metrics().Snapshot()
	if m.TotalAborts() == 0 {
		t.Fatal("no abort recorded for the stale upgrade")
	}
	var got int64
	if err := tc.rts[0].AtomicRO(ctx, "check", func(tx *Txn) error {
		v, err := tx.Read(ctx, "up/s")
		if err != nil {
			return err
		}
		got = v.(*box).N
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 102 {
		t.Fatalf("final value %d, want 102 (1 + 100 + 1)", got)
	}
}

// TestROSnapshotConsistencyUnderWriters hammers the snapshot guarantee end
// to end: writers keep moving value between two objects (conserving the
// sum) while read-only transactions assert every snapshot they see is
// internally consistent.
func TestROSnapshotConsistencyUnderWriters(t *testing.T) {
	const total = 100
	tc := newTestCluster(t, 3, transport.UniformLatency(50*time.Microsecond), nil)
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "sc/a", &box{N: total}); err != nil {
		t.Fatal(err)
	}
	if err := tc.rts[0].CreateRoot(ctx, "sc/b", &box{N: 0}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := tc.rts[1].Atomic(ctx, "move", func(tx *Txn) error {
				if err := tx.Update(ctx, "sc/a", func(v object.Value) object.Value {
					v.(*box).N--
					return v
				}); err != nil {
					return err
				}
				return tx.Update(ctx, "sc/b", func(v object.Value) object.Value {
					v.(*box).N++
					return v
				})
			})
			if err != nil {
				werr = err
				return
			}
		}
	}()

	for i := 0; i < 60; i++ {
		var a, b int64
		err := tc.rts[2].AtomicRO(ctx, "audit", func(tx *Txn) error {
			vals, err := tx.ReadMany(ctx, []object.ID{"sc/a", "sc/b"})
			if err != nil {
				return err
			}
			a, b = vals[0].(*box).N, vals[1].(*box).N
			return nil
		})
		if err != nil {
			t.Fatalf("audit %d: %v", i, err)
		}
		if a+b != total {
			t.Fatalf("audit %d saw torn snapshot: a=%d b=%d sum=%d, want %d", i, a, b, a+b, total)
		}
	}
	close(stop)
	wg.Wait()
	if werr != nil {
		t.Fatalf("writer: %v", werr)
	}
}

func TestAtomicReadDispatchesOnRuntimeKnob(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "knob/x", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	read := func() {
		t.Helper()
		if err := tc.rts[1].AtomicRead(ctx, "r", func(tx *Txn) error {
			_, err := tx.Read(ctx, "knob/x")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	read() // knob off: ownership path
	if m := tc.rts[0].Metrics().Snapshot(); m.SnapReads != 0 {
		t.Fatalf("knob off but %d snapshot reads served", m.SnapReads)
	}
	tc.rts[1].SetReadOnlyReads(true)
	read() // knob on: MVCC path
	if m := tc.rts[0].Metrics().Snapshot(); m.SnapReads != 1 {
		t.Fatalf("knob on but %d snapshot reads served, want 1", m.SnapReads)
	}
}
