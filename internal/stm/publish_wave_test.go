package stm

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
)

// These tests pin the publish wave: past the commit point the committer sends
// ONE message to every node that owns an object the commit moves or is the
// home of one — asking for the node's objects and naming everything that
// moves — and installs, so serves, locks, migrates onward, only once all have
// answered. A later migration's directory update can therefore never reach
// the home before this one, and every node the wave reached knows where the
// objects went.

// holdPublishWave returns a memnet interceptor that holds every reply to the
// committer's publish messages inside Send until nodes distinct destinations
// have received theirs, and hands everything else (and the released replies)
// to next: a commit that waits for one answer before sending the next message
// never gets past the first.
func holdPublishWave(t *testing.T, nodes int, next func(*transport.Message) bool) func(*transport.Message) bool {
	return holdReplies(t, KindCommitObjectBatch, nodes, "publish", "old owners and homes are not one wave", next)
}

// kindUpdateBatch is the retired directory update (cc kind 6): the publish
// message carries what it carried, so nothing may send it.
const kindUpdateBatch transport.Kind = 6

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
// at node 2. Its commit blocks on two waves — the locking retrieve, then
// publish to the old owner and the home together — and sends the three
// messages it always sent.
func TestMigratingCommitIsTwoWaves(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	x := homedAt(t, 3, 2)
	seed(t, tc, map[object.ID]int{x: 1})
	var msgs kindCounter
	tc.net.SetInterceptor(holdPublishWave(t, 2, msgs.intercept))

	if err := tc.rts[0].Atomic(ctx, "w", func(tx *Txn) error { return tx.Update(ctx, x, bump) }); err != nil {
		t.Fatal(err)
	}
	m := tc.rts[0].Metrics().Snapshot()
	if m.CommitRounds != 2 || m.CommitMsgs != 3 {
		t.Fatalf("commit took %d waves and %d messages, want 2 (lock; publish to owner and home) and 3", m.CommitRounds, m.CommitMsgs)
	}
	if a, p, u := msgs.count(kindLockingRetrieve), msgs.count(KindCommitObjectBatch), msgs.count(kindUpdateBatch); a != 1 || p != 2 || u != 0 {
		t.Fatalf("lock/publish/kind-6 messages = %d/%d/%d, want 1/2 (old owner, home)/0", a, p, u)
	}
	if !tc.rts[0].Store().Owns(x) || homeSays(t, tc.rts[1], x) != 0 {
		t.Fatalf("x not at node 0, or its home does not say so")
	}
}

// TestInstallWaitsForTheDirectoryUpdate: node 1 takes x from node 0 and its
// publish message to x's home, node 3, is held on the wire. While it is, node
// 1 does not hold x — nobody can obtain x from it — so node 2's migration of x
// cannot complete, and its directory update cannot reach the home first. Once
// the message is let go both commits finish, and the home names the last
// owner.
func TestInstallWaitsForTheDirectoryUpdate(t *testing.T) {
	tc := newTestCluster(t, 4, nil, nil)
	ctx := context.Background()
	x := homedAt(t, 4, 3)
	seed(t, tc, map[object.ID]int{x: 0})

	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	tc.net.SetInterceptor(func(m *transport.Message) bool {
		if m.Kind == KindCommitObjectBatch && m.From == 1 && m.To == 3 && !m.IsReply {
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

// TestLatePublishCopyCannotMoveTheHomeBack: node 1 takes x from node 0 and
// node 2 then takes it from node 1; x is homed at node 3. A copy of node 1's
// publish message to the home, delivered again after node 1 has sent the
// home 4,097 other requests, is never served: node 1's call is over, so the
// home still names node 2, not node 1.
func TestLatePublishCopyCannotMoveTheHomeBack(t *testing.T) {
	tc := newTestCluster(t, 4, nil, nil)
	ctx := context.Background()
	x := homedAt(t, 4, 3)
	seed(t, tc, map[object.ID]int{x: 0})

	var mu sync.Mutex
	var publish *transport.Message
	tc.net.SetInterceptor(func(m *transport.Message) bool {
		if m.Kind == KindCommitObjectBatch && m.From == 1 && m.To == 3 && !m.IsReply {
			mu.Lock()
			if publish == nil {
				c := *m
				publish = &c
			}
			mu.Unlock()
		}
		return true
	})
	for _, node := range []int{1, 2} {
		if err := tc.rts[node].Atomic(ctx, "w", func(tx *Txn) error { return tx.Update(ctx, x, bump) }); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	late := publish
	mu.Unlock()
	if late == nil {
		t.Fatal("node 1 sent x's home no publish message")
	}
	for i := 0; i <= 4096; i++ {
		homeSays(t, tc.rts[1], x)
	}

	home := tc.rts[3].Locator()
	if err := tc.net.Endpoint(1).Send(late); err != nil {
		t.Fatal(err)
	}
	// The link is FIFO: once a later request from node 1 is answered, the
	// copy has been delivered, and a served copy's handler gets 50 ms.
	homeSays(t, tc.rts[1], x)
	time.Sleep(50 * time.Millisecond)
	if owner, err := home.Locate(ctx, x); err != nil || owner != 2 {
		t.Fatalf("the home names node %d (%v) after a late copy of node 1's publish, want node 2", owner, err)
	}
}

// TestRefusedPublishPointsTheHomeBack: node 0 commits a, b (node 1) and c
// (node 2); b's commit lock is freed under its holder between acquire and
// publish, which only a defect could do, so node 1 refuses to surrender it.
// The siblings are published, b stays at node 1 unchanged and unlocked, its
// home — told in the same wave that b was moving — names node 1 again, and
// the commit reports the refusal. A publish call that fails takes the same
// path for all of its entries.
func TestRefusedPublishPointsTheHomeBack(t *testing.T) {
	tc := newTestCluster(t, 4, nil, nil)
	ctx := context.Background()
	a, b, c := homedAt(t, 4, 3), homedAt(t, 4, 2), homedAt(t, 4, 1)
	seed(t, tc, map[object.ID]int{a: 1, b: 1, c: 2})

	var lockID uint64
	var free sync.Once
	tc.net.SetInterceptor(holdPublishWave(t, 3, func(m *transport.Message) bool {
		if m.Kind == KindCommitObjectBatch && m.To == 1 && !m.IsReply {
			free.Do(func() { tc.rts[1].Store().Unlock(b, lockID) })
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
	if tc.rts[0].Store().Owns(b) || !tc.rts[1].Store().Owns(b) || isLocked(tc.rts[1].Store(), b) {
		t.Fatalf("refused %s is not at node 1, unlocked", b)
	}
	if got := homeSays(t, tc.rts[3], b); got != 1 {
		t.Fatalf("the home of refused %s names node %d, want its old owner, node 1", b, got)
	}
	if na, nb, nc := readBox(t, tc.rts[3], a), readBox(t, tc.rts[3], b), readBox(t, tc.rts[3], c); na != 11 || nb != 10 || nc != 21 {
		t.Fatalf("a=%d b=%d c=%d, want 11/10/21", na, nb, nc)
	}
}

// route is one request or one-way message as an interceptor saw it.
type route struct {
	kind     transport.Kind
	from, to transport.NodeID
}

// routeLog is a memnet interceptor recording every request and one-way
// message (replies are not recorded).
type routeLog struct {
	mu   sync.Mutex
	seen []route
}

func (l *routeLog) intercept(m *transport.Message) bool {
	if !m.IsReply {
		l.mu.Lock()
		l.seen = append(l.seen, route{m.Kind, m.From, m.To})
		l.mu.Unlock()
	}
	return true
}

// take returns what was recorded since the last call.
func (l *routeLog) take() []route {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := l.seen
	l.seen = nil
	return seen
}

// readBoth reads x and y in one read-only transaction on rt.
func readBoth(t *testing.T, rt *Runtime, x, y object.ID) (nx, ny int64) {
	t.Helper()
	nx, ny, err := audit(context.Background(), rt, x, y)
	if err != nil {
		t.Fatal(err)
	}
	return nx, ny
}

// TestOneRetrieveWaveAfterPublish: node 0 commits a write that brings home x
// (old owner node 1, home node 2) and y (old owner node 2, home node 3). Every
// node had read both, so each held a pointer to an old owner. The publish wave
// reaches nodes 1, 2 and 3: each then locates both objects at node 0 without
// a message, and its next ReadMany{x, y} is ONE retrieve, to node 0, with no
// stale hop. Node 4, which the wave did not reach, still gets there through
// the old owners' moved-to pointers: one extra wave, no directory lookup.
func TestOneRetrieveWaveAfterPublish(t *testing.T) {
	tc := newTestCluster(t, 5, nil, nil)
	ctx := context.Background()
	x, y := homedAt(t, 5, 2), homedAt(t, 5, 3)
	seed(t, tc, map[object.ID]int{x: 1, y: 2})
	for _, rt := range tc.rts[1:] {
		readBoth(t, rt, x, y)
	}
	if err := move(ctx, tc.rts[0], x, y); err != nil {
		t.Fatal(err)
	}

	var log routeLog
	tc.net.SetInterceptor(log.intercept)
	for n := 1; n <= 3; n++ {
		rt := tc.rts[n]
		before := rt.Metrics().Snapshot()
		owners, msgs, err := rt.Locator().LocateBatch(ctx, []object.ID{x, y})
		if err != nil || msgs != 0 || owners[x] != 0 || owners[y] != 0 || len(log.take()) != 0 {
			t.Fatalf("node %d locates %v with %d messages (%v); want both at node 0, no message", n, owners, msgs, err)
		}
		if nx, ny := readBoth(t, rt, x, y); nx != 9 || ny != 21 {
			t.Fatalf("node %d read x=%d y=%d, want 9 and 21", n, nx, ny)
		}
		want := route{KindRetrieve, transport.NodeID(n), 0}
		if seen := log.take(); len(seen) != 1 || seen[0] != want {
			t.Fatalf("node %d's read sent %v, want one retrieve to node 0", n, seen)
		}
		m := rt.Metrics().Snapshot()
		m.Sub(before)
		if m.RetrieveWaves != 1 || m.StaleHops != 0 || m.RemoteCopies != 2 {
			t.Fatalf("node %d: %d waves, %d stale hops, %d copies; want 1, 0, 2", n, m.RetrieveWaves, m.StaleHops, m.RemoteCopies)
		}
	}

	// Not reached by the wave: the pointers node 4 holds are the old owners'.
	if nx, ny := readBoth(t, tc.rts[4], x, y); nx != 9 || ny != 21 {
		t.Fatalf("node 4 read x=%d y=%d, want 9 and 21", nx, ny)
	}
	var retrieves int
	for _, r := range log.take() {
		if r.kind != KindRetrieve {
			t.Fatalf("node 4's read sent %v; want retrieves only", r)
		}
		retrieves++
	}
	m := tc.rts[4].Metrics().Snapshot()
	if retrieves != 3 || m.StaleHops != 2 || retrieves > maxOwnerHops {
		t.Fatalf("node 4: %d retrieves, %d stale hops; want 3 (both old owners, then node 0) and 2", retrieves, m.StaleHops)
	}
}

// TestGossipedMoveNeedsNoChase: as in TestOneRetrieveWaveAfterPublish, node
// 0 takes x (from node 1) and y (from node 2), and node 4, which had read
// both, is not reached by the publish wave. But once node 0 has sent node 4
// any message — here a lookup of z at its home, node 4 — that message carried
// what node 0 took, so node 4's next ReadMany{x, y} is ONE retrieve, to node
// 0, with no stale hop and no directory message.
func TestGossipedMoveNeedsNoChase(t *testing.T) {
	tc := newTestCluster(t, 5, nil, nil)
	ctx := context.Background()
	x, y, z := homedAt(t, 5, 2), homedAt(t, 5, 3), homedAt(t, 5, 4)
	seed(t, tc, map[object.ID]int{x: 1, y: 2, z: 4})
	for _, rt := range tc.rts[1:] {
		readBoth(t, rt, x, y)
	}
	if err := move(ctx, tc.rts[0], x, y); err != nil {
		t.Fatal(err)
	}
	if owner := homeSays(t, tc.rts[0], z); owner != 4 {
		t.Fatalf("z's home names node %d, want 4", owner)
	}

	var log routeLog
	tc.net.SetInterceptor(log.intercept)
	rt := tc.rts[4]
	before := rt.Metrics().Snapshot()
	if nx, ny := readBoth(t, rt, x, y); nx != 9 || ny != 21 {
		t.Fatalf("node 4 read x=%d y=%d, want 9 and 21", nx, ny)
	}
	if seen := log.take(); len(seen) != 1 || seen[0] != (route{KindRetrieve, 4, 0}) {
		t.Fatalf("node 4's read sent %v, want one retrieve to node 0", seen)
	}
	m := rt.Metrics().Snapshot()
	m.Sub(before)
	if m.RetrieveWaves != 1 || m.StaleHops != 0 || m.RemoteCopies != 2 {
		t.Fatalf("node 4: %d waves, %d stale hops, %d copies; want 1, 0, 2", m.RetrieveWaves, m.StaleHops, m.RemoteCopies)
	}
}

// TestHintAheadOfTheInstallRecovers: node 0 takes x from node 1; its publish
// message to x's home, node 2, is held, so node 1 already points at node 0
// while node 0 does not hold x yet. Node 1's read goes to node 0, is answered
// "not owner", and ends at node 0 one directory lookup later — inside the hop
// bound, with no abort.
func TestHintAheadOfTheInstallRecovers(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	x := homedAt(t, 3, 2)
	seed(t, tc, map[object.ID]int{x: 1})

	held, release := make(chan struct{}), make(chan struct{})
	letGo := sync.OnceFunc(func() { close(release) })
	defer letGo() // a failed test must not leave the commit held
	var hold, early sync.Once
	var log routeLog
	tc.net.SetInterceptor(func(m *transport.Message) bool {
		switch {
		case m.Kind == KindCommitObjectBatch && m.To == 2 && !m.IsReply:
			hold.Do(func() {
				close(held)
				<-release
			})
		case m.Kind == KindRetrieve && m.From == 0 && m.IsReply:
			// The answer to the early request: let the commit finish before
			// the reader hears it, so what the reader does next is decided.
			early.Do(func() {
				if tc.rts[0].Store().Owns(x) {
					t.Error("node 0 holds x before its home answered")
				}
				letGo()
				for end := time.Now().Add(2 * time.Second); !tc.rts[0].Store().Owns(x) && time.Now().Before(end); {
					time.Sleep(100 * time.Microsecond)
				}
			})
		}
		return log.intercept(m)
	})
	done := make(chan error, 1)
	go func() {
		done <- tc.rts[0].Atomic(ctx, "w", func(tx *Txn) error { return tx.Write(ctx, x, &box{N: 7}) })
	}()
	<-held
	waitFor(t, func() bool {
		owner, err := tc.rts[1].Locator().Locate(ctx, x)
		return err == nil && owner == 0
	})
	log.take()

	if got := readBox(t, tc.rts[1], x); got != 7 {
		t.Fatalf("read %d, want 7", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var retrieves, lookups int
	for _, r := range log.take() {
		switch {
		case r == route{KindRetrieve, 1, 0}:
			retrieves++
		case r.from == 1 && r.to == 2: // the home lookup
			lookups++
		}
	}
	m := tc.rts[1].Metrics().Snapshot()
	if retrieves != 2 || lookups != 1 || m.StaleHops != 1 || m.TotalAborts() != 0 {
		t.Fatalf("%d retrieves to node 0, %d home lookups, %d stale hops, %d aborts; want 2, 1, 1, 0",
			retrieves, lookups, m.StaleHops, m.TotalAborts())
	}
}

// TestPublishWaveIsOneMessagePerNode: node 0 commits five writes — p (owner
// and home node 1), q (owner 1, home 2), r (owner 2, home 3), s (owner 2,
// home 0) and u (its own, home 4). The publish wave is one message to each of
// nodes 1, 2 and 3 — old owners ∪ homes of what moves — all in flight
// together; node 4, home of an object that stays, hears nothing.
func TestPublishWaveIsOneMessagePerNode(t *testing.T) {
	tc := newTestCluster(t, 5, nil, nil)
	ctx := context.Background()
	ids := make([]object.ID, 5) // one object homed at each node
	for home := range ids {
		ids[home] = homedAt(t, 5, home)
	}
	p, q, r, s, u := ids[1], ids[2], ids[3], ids[0], ids[4]
	seed(t, tc, map[object.ID]int{p: 1, q: 1, r: 2, s: 2, u: 0})
	var log routeLog
	tc.net.SetInterceptor(holdPublishWave(t, 3, log.intercept))

	if err := tc.rts[0].Atomic(ctx, "w", func(tx *Txn) error {
		for _, oid := range []object.ID{p, q, r, s, u} {
			if err := tx.Update(ctx, oid, bump); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	published := map[transport.NodeID]int{}
	for _, m := range log.take() {
		if m.kind == kindUpdateBatch {
			t.Fatalf("a kind-6 directory update was sent: %v", m)
		}
		if m.kind == KindCommitObjectBatch {
			published[m.to]++
		}
	}
	if len(published) != 3 || published[1] != 1 || published[2] != 1 || published[3] != 1 {
		t.Fatalf("publish messages per node = %v, want one each to nodes 1, 2 and 3", published)
	}
	tc.net.SetInterceptor(nil)
	for _, oid := range []object.ID{p, q, r, s, u} {
		if !tc.rts[0].Store().Owns(oid) || homeSays(t, tc.rts[4], oid) != 0 {
			t.Fatalf("%s is not at node 0, or its home does not say so", oid)
		}
	}
}

// askAbout sends node from's retrieve for oid straight to node at, with no
// directory lookup, and returns at's answer.
func askAbout(t *testing.T, tc *testCluster, from, at transport.NodeID, oid object.ID) retrieveResult {
	t.Helper()
	body, err := tc.rts[from].ep.Call(context.Background(), at, KindRetrieve,
		retrieveReq{TxID: 0xa5, Mode: sched.Read, Oids: []object.ID{oid}})
	if err != nil {
		t.Fatal(err)
	}
	return body.(retrieveResp).Results[0]
}

// takeAway commits a write of oid at node to, which migrates it there.
func takeAway(t *testing.T, tc *testCluster, to int, oid object.ID) {
	t.Helper()
	if err := tc.rts[to].Atomic(context.Background(), "take", func(tx *Txn) error {
		return tx.Write(context.Background(), oid, &box{N: int64(to)})
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReturningObjectIsNotMovedAway: node 1 took x from node 0, so node 0
// answers Moved to node 1. Then node 0 writes x, and its publish wave, which
// brings x back from node 1, is held for its replies. A retrieve served at
// node 0 in that window is answered NotOwner — ask the home — and not Moved
// to node 1, which is sending x back.
func TestReturningObjectIsNotMovedAway(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	seed(t, tc, map[object.ID]int{"x": 0})
	takeAway(t, tc, 1, "x")
	if r := askAbout(t, tc, 2, 0, "x"); r.Status != statusMoved || r.MovedTo != 1 {
		t.Fatalf("node 0 answers %v to node %d, want moved to node 1", r.Status, r.MovedTo)
	}

	held, release := make(chan struct{}), make(chan struct{})
	letGo := sync.OnceFunc(func() { close(release) })
	defer letGo() // a failed test must not leave the commit held
	var hold sync.Once
	tc.net.SetInterceptor(func(m *transport.Message) bool {
		// Node 1's reply, held on node 1's goroutine serving node 0; a reply
		// of node 2's held there would hold node 0's answers to node 2 too.
		if m.Kind == KindCommitObjectBatch && m.IsReply && m.From == 1 && m.To == 0 {
			hold.Do(func() {
				close(held)
				<-release
			})
		}
		return true
	})
	done := make(chan error, 1)
	go func() {
		done <- tc.rts[0].Atomic(ctx, "w", func(tx *Txn) error { return tx.Write(ctx, "x", &box{N: 7}) })
	}()
	<-held
	r := askAbout(t, tc, 2, 0, "x")
	letGo()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r.Status != statusNotOwner {
		t.Fatalf("during the wave node 0 answers %v to node %d, want not-owner", r.Status, r.MovedTo)
	}
	if got := readBox(t, tc.rts[2], "x"); got != 7 || !tc.rts[0].Store().Owns("x") {
		t.Fatalf("read %d, node 0 holds x = %v; want 7 and true", got, tc.rts[0].Store().Owns("x"))
	}
}

// TestRolledBackCreateLeavesNoDepartureRecord: node 1 held x and node 0 took
// it, so node 1 answers Moved to node 0. Then node 1 creates x again, and the
// home refuses it: by CreateRoots, or by a transaction's creation, which
// rolls back. The install cleared the departure record and the rollback's
// removal writes none, so node 1 answers NotOwner.
func TestRolledBackCreateLeavesNoDepartureRecord(t *testing.T) {
	cases := map[string]func(ctx context.Context, rt *Runtime) error{
		"CreateRoots": func(ctx context.Context, rt *Runtime) error {
			return rt.CreateRoots(ctx, []object.ID{"x"}, []object.Value{&box{N: 9}})
		},
		"transaction": func(ctx context.Context, rt *Runtime) error {
			return rt.Atomic(ctx, "create", func(tx *Txn) error { return tx.Create("x", &box{N: 9}) })
		},
	}
	for name, create := range cases {
		t.Run(name, func(t *testing.T) {
			tc := newTestCluster(t, 3, nil, nil)
			ctx := context.Background()
			seed(t, tc, map[object.ID]int{"x": 1})
			takeAway(t, tc, 0, "x")
			if r := askAbout(t, tc, 2, 1, "x"); r.Status != statusMoved || r.MovedTo != 0 {
				t.Fatalf("node 1 answers %v to node %d, want moved to node 0", r.Status, r.MovedTo)
			}
			if err := create(ctx, tc.rts[1]); err == nil || !strings.Contains(err.Error(), "already registered") {
				t.Fatalf("create: err = %v, want already registered", err)
			}
			if r := askAbout(t, tc, 2, 1, "x"); r.Status != statusNotOwner {
				t.Fatalf("after the rollback node 1 answers %v to node %d, want not-owner", r.Status, r.MovedTo)
			}
		})
	}
}

// TestCommitMigrationOfAGoneObjectFails: once a commit has taken an object
// away from its owner, a commit message claiming it again — from another
// transaction or from a new call of the same one — is refused. A copy of the
// first message is never served again (the endpoint's floor), so no
// migration has to be replayable.
func TestCommitMigrationOfAGoneObjectFails(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	rt0, rt1 := tc.rts[0], tc.rts[1]
	ctx := context.Background()

	if err := rt0.CreateRoot(ctx, "mig", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	const txid = 77
	ver := rt0.Store().State("mig").Ver
	if got := lockOne(rt0.Store(), "mig", txid, ver); got != object.LockOK {
		t.Fatalf("lock: %v", got)
	}

	req := commitObjBatchReq{TxID: txid, NewOwner: 1, Oids: []object.ID{"mig"}, Moved: []object.ID{"mig"}}
	// migrate sends the one-entry batch and returns that entry's error text.
	migrate := func(req commitObjBatchReq) string {
		t.Helper()
		body, err := rt1.ep.Call(ctx, 0, KindCommitObjectBatch, req)
		if err != nil {
			t.Fatalf("migration call: %v", err)
		}
		results := body.(commitObjBatchResp).Results
		if len(results) != 1 {
			t.Fatalf("results = %+v, want one entry", results)
		}
		return results[0].Err
	}
	// First migration removes the object from node 0.
	if e := migrate(req); e != "" {
		t.Fatalf("migration: %s", e)
	}
	if rt0.Store().Owns("mig") {
		t.Fatal("object still owned by old owner after migration")
	}
	// A new call of the same transaction finds the object gone, and so does
	// a different transaction claiming it.
	if e := migrate(req); e == "" {
		t.Fatal("a second migration call of a gone object succeeded")
	}
	bad := req
	bad.TxID = 78
	if e := migrate(bad); e == "" {
		t.Fatal("foreign-tx migration of a gone object succeeded")
	}
}
