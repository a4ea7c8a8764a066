package stm

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"dstm/internal/cc"
	"dstm/internal/object"
	"dstm/internal/transport"
)

// These tests pin the publish wave: past the commit point the committer asks
// the old owners for the objects and tells the homes where they are going in
// ONE wave, and installs — so serves, locks, migrates onward — only once both
// have answered. A later migration's directory update can therefore never
// reach the home before this one.

// holdPublishWave returns a memnet interceptor that holds the committer's
// migration request and its directory update inside Send until one of each
// is pending, and hands everything else (and the released pair) to next: a
// commit that waits for one answer before sending the other never gets past
// the first.
func holdPublishWave(t *testing.T, next func(*transport.Message) bool) func(*transport.Message) bool {
	var (
		mu      sync.Mutex
		pending = map[transport.Kind]bool{}
		both    = make(chan struct{})
	)
	return func(m *transport.Message) bool {
		if (m.Kind == KindCommitObjectBatch || m.Kind == cc.KindUpdateBatch) && !m.IsReply {
			mu.Lock()
			if !pending[m.Kind] {
				pending[m.Kind] = true
				if len(pending) == 2 {
					close(both)
				}
			}
			mu.Unlock()
			select {
			case <-both:
			case <-time.After(2 * time.Second):
				t.Errorf("%v sent alone: publish and directory update are not one wave", m.Kind)
			}
		}
		return next(m)
	}
}

// homeSays is a fresh home lookup of oid, asked from node rt.
func homeSays(t *testing.T, rt *Runtime, oid object.ID) transport.NodeID {
	t.Helper()
	owner, err := rt.Locator().Relocate(context.Background(), oid)
	if err != nil {
		t.Fatal(err)
	}
	return owner
}

// TestMigratingCommitIsTwoWaves: node 0 writes x, owned by node 1 and homed
// at node 2. Its commit blocks on two waves — acquire, then publish with the
// directory update alongside — and sends the three messages it always sent.
func TestMigratingCommitIsTwoWaves(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	x := homedAt(t, 3, 2)
	seed(t, tc, map[object.ID]int{x: 1})
	var msgs kindCounter
	tc.net.SetInterceptor(holdPublishWave(t, msgs.intercept))

	if err := tc.rts[0].Atomic(ctx, "w", func(tx *Txn) error { return tx.Update(ctx, x, bump) }); err != nil {
		t.Fatal(err)
	}
	m := tc.rts[0].Metrics().Snapshot()
	if m.CommitRounds != 2 || m.CommitMsgs != 3 {
		t.Fatalf("commit took %d waves and %d messages, want 2 (acquire; publish with update) and 3", m.CommitRounds, m.CommitMsgs)
	}
	if a, p, u := msgs.count(KindAcquireBatch), msgs.count(KindCommitObjectBatch), msgs.count(cc.KindUpdateBatch); a != 1 || p != 1 || u != 1 {
		t.Fatalf("acquire/publish/update messages = %d/%d/%d, want 1/1/1", a, p, u)
	}
	if !tc.rts[0].Store().Owns(x) || homeSays(t, tc.rts[1], x) != 0 {
		t.Fatalf("x not at node 0, or its home does not say so")
	}
}

// TestInstallWaitsForTheDirectoryUpdate: node 1 takes x from node 0 and its
// directory update is held on the wire. While it is, node 1 does not hold x
// — nobody can obtain x from it — so node 2's migration of x cannot complete,
// and its directory update cannot reach the home first. Once the update is
// let go both commits finish, and the home names the last owner.
func TestInstallWaitsForTheDirectoryUpdate(t *testing.T) {
	tc := newTestCluster(t, 4, nil, nil)
	ctx := context.Background()
	x := homedAt(t, 4, 3)
	seed(t, tc, map[object.ID]int{x: 0})

	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	tc.net.SetInterceptor(func(m *transport.Message) bool {
		if m.Kind == cc.KindUpdateBatch && m.From == 1 && !m.IsReply {
			once.Do(func() { close(held) })
			<-release
		}
		return true
	})
	write := func(rt *Runtime, n int64) chan error {
		done := make(chan error, 1)
		go func() {
			done <- rt.Atomic(ctx, "w", func(tx *Txn) error { return tx.Write(ctx, x, &box{N: n}) })
		}()
		return done
	}

	first := write(tc.rts[1], 7)
	<-held
	waitFor(t, func() bool { return !tc.rts[0].Store().Owns(x) })
	if tc.rts[1].Store().Owns(x) {
		t.Fatal("the committer holds x before its home acknowledged the move")
	}
	second := write(tc.rts[2], 9)
	select {
	case err := <-second:
		t.Fatalf("a second migration of x completed (err %v) while the first one's directory update was in flight", err)
	case <-time.After(30 * time.Millisecond):
	}

	close(release)
	for _, done := range []chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if !tc.rts[2].Store().Owns(x) || readBox(t, tc.rts[0], x) != 9 {
		t.Fatal("x = 9 is not at node 2")
	}
	if got := homeSays(t, tc.rts[0], x); got != 2 {
		t.Fatalf("the home names node %d, want the last owner, node 2", got)
	}
}

// TestRefusedPublishPointsTheHomeBack: node 0 commits a, b (node 1) and c
// (node 2); b's commit lock is reaped between acquire and publish, so node 1
// refuses to surrender it. The siblings are published, b stays at node 1
// unchanged and unlocked, its home — told in the same wave that b was moving
// — names node 1 again, and the commit reports the refusal.
func TestRefusedPublishPointsTheHomeBack(t *testing.T) {
	tc := newTestCluster(t, 4, nil, nil)
	ctx := context.Background()
	a, b, c := homedAt(t, 4, 3), homedAt(t, 4, 2), homedAt(t, 4, 1)
	seed(t, tc, map[object.ID]int{a: 1, b: 1, c: 2})

	var lockID uint64
	var reap sync.Once
	tc.net.SetInterceptor(holdPublishWave(t, func(m *transport.Message) bool {
		if m.Kind == KindCommitObjectBatch && m.To == 1 && !m.IsReply {
			reap.Do(func() { tc.rts[1].Store().Unlock(b, lockID) })
		}
		return true
	}))

	err := tc.rts[0].Atomic(ctx, "w", func(tx *Txn) error {
		lockID = tx.lockID
		for _, oid := range []object.ID{a, b, c} {
			if err := tx.Update(ctx, oid, bump); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), string(b)) {
		t.Fatalf("commit returned %v, want the refused migration of %s", err, b)
	}
	tc.net.SetInterceptor(nil)
	for _, oid := range []object.ID{a, c} {
		if !tc.rts[0].Store().Owns(oid) || homeSays(t, tc.rts[3], oid) != 0 {
			t.Fatalf("sibling %s was not published to node 0", oid)
		}
	}
	if tc.rts[0].Store().Owns(b) || !tc.rts[1].Store().Owns(b) || tc.rts[1].Store().Locked(b) {
		t.Fatalf("refused %s is not at node 1, unlocked", b)
	}
	if got := homeSays(t, tc.rts[3], b); got != 1 {
		t.Fatalf("the home of refused %s names node %d, want its old owner, node 1", b, got)
	}
	if na, nb, nc := readBox(t, tc.rts[3], a), readBox(t, tc.rts[3], b), readBox(t, tc.rts[3], c); na != 11 || nb != 10 || nc != 21 {
		t.Fatalf("a=%d b=%d c=%d, want 11/10/21", na, nb, nc)
	}
}
