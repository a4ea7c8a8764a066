package stm

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dstm/internal/core"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
)

// TestValidationNeverConsultsTheScheduler: a validation is a prefetch
// retrieve, whatever its request says. An entry another transaction holds
// commit-locked comes back stale, with no conflict shown to the owner's
// scheduler and nothing queued; and a kind-18 request that asks for the
// scheduled or the locking retrieve is served as a prefetch all the same: it
// neither queues nor locks anything.
func TestValidationNeverConsultsTheScheduler(t *testing.T) {
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
	seed(t, tc, map[object.ID]int{"y": 1, "z": 1})

	errDone := errors.New("done")
	err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
		if _, err := tx.Read(ctx, "y"); err != nil {
			return err
		}
		lockObject(t, tc.rts[1], "y")
		observed := owner.observed.Load()
		stale, err := tx.checkVersions(ctx, []object.ID{"y"}, nil)
		if err != nil || !slices.Equal(stale, []object.ID{"y"}) {
			t.Errorf("validating a locked entry: stale %v, err %v; want [y]", stale, err)
		}
		if o, c, q := owner.observed.Load()-observed, owner.conflicts.Load(), rts.QueueLen("y"); o != 0 || c != 0 || q != 0 {
			t.Errorf("validating a locked entry: observed %d, conflicts %d, queued %d; want none", o, c, q)
		}
		return errDone
	})
	if !errors.Is(err, errDone) {
		t.Fatal(err)
	}

	// A scheduled retrieve of the locked y and a locking retrieve of the free
	// z, both sent as validations.
	for _, c := range []struct {
		req  retrieveReq
		want status
	}{
		{retrieveReq{TxID: 1 << 40, Mode: sched.Write, MyCL: 1, Oids: []object.ID{"y"}}, statusDenied},
		{retrieveReq{TxID: 1 << 40, Mode: sched.Write, LockID: 1<<40 | 1, Oids: []object.ID{"z"}}, statusOK},
	} {
		body, err := tc.rts[0].ep.Call(ctx, 1, KindCheckVersionBatch, c.req)
		if err != nil {
			t.Fatal(err)
		}
		resp := body.(retrieveResp)
		if got := resp.Results[0].Status; got != c.want || resp.Locked {
			t.Errorf("validation of %s: status %d, locked %v; want %d, unlocked", c.req.Oids[0], got, resp.Locked, c.want)
		}
	}
	if c, q := owner.conflicts.Load(), rts.QueueLen("y"); c != 0 || q != 0 {
		t.Errorf("after the validations: conflicts %d, queued %d; want none", c, q)
	}
	if isLocked(tc.rts[1].Store(), "z") {
		t.Error("a validation locked z")
	}
}

// TestValidationRepliesCarryNoValue: an owner answers a validation with the
// version of each entry it holds and no value — the requester compares
// versions only — while a retrieve of the same entries carries the values.
func TestValidationRepliesCarryNoValue(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	oids := []object.ID{"a", "b", "c"}
	seed(t, tc, map[object.ID]int{"a": 1, "b": 1, "c": 1})
	for kind, wantValue := range map[transport.Kind]bool{KindCheckVersionBatch: false, KindRetrieve: true} {
		body, err := tc.rts[0].ep.Call(ctx, 1, kind, retrieveReq{TxID: 7, Mode: sched.Read, Prefetch: true, Oids: oids})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range body.(retrieveResp).Results {
			if r.Status != statusOK || r.Version != tc.rts[1].Store().State(oids[i]).Ver || (r.Value != nil) != wantValue {
				t.Errorf("kind %d, %s: status %d, version %v, value %v; want a current version, with a value: %v",
					kind, oids[i], r.Status, r.Version, r.Value, wantValue)
			}
		}
	}
}

// TestCommitNeverValidatesItsOwnLocks: a commit validates only the entries
// its attempt does not hold locked. The owner denies every commit-locked
// entry to a validation, its own holder's included, so an announced write
// (locked by the announcement) or a write the commit just locked must never
// be sent: the commit would abort on its own lock.
func TestCommitNeverValidatesItsOwnLocks(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"x": 1, "y": 1, "z": 2})
	var (
		committing atomic.Bool
		mu         sync.Mutex
		validated  []object.ID
	)
	tc.net.SetInterceptor(func(m *transport.Message) bool {
		if q, ok := m.Payload.(retrieveReq); ok && m.Kind == KindCheckVersionBatch && committing.Load() {
			mu.Lock()
			validated = append(validated, q.Oids...)
			mu.Unlock()
		}
		return true
	})
	errRetried := errors.New("the commit aborted")
	runs := 0
	err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
		if runs++; runs > 1 {
			return errRetried
		}
		tx.Prefetch(ctx, []object.ID{"y"}, sched.Write)
		if !tx.holdsLock("y") {
			t.Error("the announcement did not lock y")
		}
		for _, oid := range []object.ID{"x", "y"} {
			if err := tx.Update(ctx, oid, bump); err != nil {
				return err
			}
		}
		if _, err := tx.Read(ctx, "z"); err != nil {
			return err
		}
		committing.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(validated, []object.ID{"z"}) {
		t.Fatalf("the commit validated %v; want [z]", validated)
	}
}
