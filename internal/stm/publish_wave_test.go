package stm

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
)

// These tests pin lock by migration and the homes wave: the locking
// retrieve hands each object it locks to the locker, which installs it
// locked, and the old owner remembers where it went; then, past the commit
// point (or at any other ending), the locker sends ONE message to every home
// of a moved object other than itself and that object's old owner — naming
// everything that moved — and frees the locks, so serves, locks and lets the
// objects move on, only once all have answered. A later migration's
// directory update can therefore never reach the home before this one, and
// every node the commit reached knows where the objects went.

// holdHomesWave returns a memnet interceptor that holds every reply to the
// committer's homes messages inside Send until nodes distinct homes have
// received theirs, and hands everything else (and the released replies) to
// next: a commit that waits for one answer before sending the next message
// never gets past the first.
func holdHomesWave(t *testing.T, nodes int, next func(*transport.Message) bool) func(*transport.Message) bool {
	return holdReplies(t, KindCommitObjectBatch, nodes, "homes message", "the homes are not one wave", next)
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
// at node 2. Its commit blocks on two waves — the locking retrieve, which
// brings x here, then the homes wave to node 2 — and sends two messages: the
// old owner hears nothing after its lock.
func TestMigratingCommitIsTwoWaves(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	x := homedAt(t, 3, 2)
	seed(t, tc, map[object.ID]int{x: 1})
	var msgs kindCounter
	tc.net.SetInterceptor(msgs.intercept)

	if err := tc.rts[0].Atomic(ctx, "w", func(tx *Txn) error { return tx.Update(ctx, x, bump) }); err != nil {
		t.Fatal(err)
	}
	m := tc.rts[0].Metrics().Snapshot()
	if m.CommitRounds != 2 || m.CommitMsgs != 2 {
		t.Fatalf("commit took %d waves and %d messages, want 2 (lock; homes) and 2", m.CommitRounds, m.CommitMsgs)
	}
	if a, p, u := msgs.count(kindLockingRetrieve), msgs.count(KindCommitObjectBatch), msgs.count(kindUpdateBatch); a != 1 || p != 1 || u != 0 {
		t.Fatalf("lock/homes/kind-6 messages = %d/%d/%d, want 1/1 (the home)/0", a, p, u)
	}
	if !tc.rts[0].Store().Owns(x) || homeSays(t, tc.rts[1], x) != 0 {
		t.Fatalf("x not at node 0, or its home does not say so")
	}
}

// TestInstallWaitsForTheDirectoryUpdate: node 1 takes x from node 0 and its
// homes message to x's home, node 3, is held on the wire. While it is, node
// 1 holds x locked and has not installed its new version — nobody can
// obtain x from it — so node 2's migration of x cannot complete, and its
// directory update cannot reach the home first. Once the message is let go
// both commits finish, and the home names the last owner.
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
	if tc.rts[0].Store().Owns(x) || !isLocked(tc.rts[1].Store(), x) {
		t.Fatal("x is not at the committer, locked, while its home has not acknowledged the move")
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
// homes message, delivered again after node 1 has sent the home 4,097 other
// requests, is never served: node 1's call is over, so the home still names
// node 2, not node 1.
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
		t.Fatal("node 1 sent x's home no homes message")
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
		t.Fatalf("the home names node %d (%v) after a late copy of node 1's homes message, want node 2", owner, err)
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
// (from node 1) and y (from node 2), homed at nodes 2 and 3. Every node had
// read both, so each held pointers to the old owners. The commit reaches
// nodes 1 and 2 (the locks, each naming what the wave takes from the other)
// and 3 (the homes wave, which names both objects): each then locates both
// objects at node 0 without a message, and its next ReadMany{x, y} is ONE
// retrieve, to node 0, with no stale hop. Node 4, which the commit did not
// reach, still gets there through the old owners' moved-to pointers: one
// extra wave, no directory lookup.
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

	// Not reached: the pointers node 4 holds are the old owners'.
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

// TestRefusedLockElsewhereLeavesAHintToChase: node 0's locking wave takes x
// from node 1 and asks node 2 for y, which another transaction holds there.
// Node 1 handed x over to a request naming y too, so it points at node 0
// for y, wrongly: its next read of y chases the hint — NotOwner at node 0,
// then y's home — and finds y at node 2 with one stale hop.
func TestRefusedLockElsewhereLeavesAHintToChase(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	ids := homedAtEach(t, 3, 2, 0)
	x, y := ids[0], ids[1]
	seed(t, tc, map[object.ID]int{x: 1, y: 2})
	lockObject(t, tc.rts[2], y)
	if err := tc.rts[0].Atomic(ctx, "root", func(tx *Txn) error {
		tx.Prefetch(ctx, []object.ID{x, y}, sched.Write)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	unlockAndServe(tc.rts[2], y)

	rt := tc.rts[1]
	if owners, msgs, err := rt.Locator().LocateBatch(ctx, []object.ID{y}); err != nil || msgs != 0 || owners[y] != 0 {
		t.Fatalf("node 1 locates y at %v with %d messages (%v); want node 0, from its hint", owners, msgs, err)
	}
	var n int64
	if err := rt.Atomic(ctx, "read", func(tx *Txn) error {
		v, err := tx.Read(ctx, y)
		if err == nil {
			n = v.(*box).N
		}
		return err
	}); err != nil || n != 20 {
		t.Fatalf("node 1 read y = %d (%v), want 20", n, err)
	}
	if m := rt.Metrics().Snapshot(); m.StaleHops != 1 || m.RemoteCopies != 1 {
		t.Fatalf("node 1's read of y: %d stale hops, %d copies; want 1 and 1", m.StaleHops, m.RemoteCopies)
	}
}

// TestGossipedMoveNeedsNoChase: as in TestOneRetrieveWaveAfterPublish, node
// 0 takes x (from node 1) and y (from node 2), and node 4, which had read
// both, is not reached by the commit. But once node 0 has sent node 4
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

// TestHintAheadOfTheInstallRecovers: node 0 takes x from node 1; node 1's
// reply to the lock, which carries x, is held, so node 1 already points at
// node 0 while node 0 does not hold x yet. Node 1's read goes to node 0, is
// answered "not owner", and ends at node 0 one directory lookup later —
// inside the hop bound, with no abort.
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
	var lc lockCalls
	tc.net.SetInterceptor(func(m *transport.Message) bool {
		switch {
		case lc.isReply(m):
			hold.Do(func() {
				close(held)
				<-release
			})
		case m.Kind == KindRetrieve && m.From == 0 && m.IsReply:
			// The answer to the early request: let the commit finish before
			// the reader hears it, so what the reader does next is decided.
			early.Do(func() {
				if tc.rts[0].Store().Owns(x) {
					t.Error("node 0 holds x before the lock's reply arrived")
				}
				letGo()
				for end := time.Now().Add(2 * time.Second); !(tc.rts[0].Store().Owns(x) && !isLocked(tc.rts[0].Store(), x)) && time.Now().Before(end); {
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

// TestRequestBetweenSurrenderAndInstallIsChased: node 0's lock takes x from
// node 1 (x's home), and node 1's reply, which carries x, is held. Node 2
// reads x in that window — through a hint that already names node 0, which
// answers "not owner" until x is installed, or through node 1, whose
// departure record names node 0 — and its second request reaches node 0
// once x is there: the read is chased, not lost, and ends inside the hop
// bound with the value node 0 published and no abort.
func TestRequestBetweenSurrenderAndInstallIsChased(t *testing.T) {
	for via, hint := range map[string]transport.NodeID{"hint": 0, "departure record": 1} {
		t.Run(via, func(t *testing.T) {
			tc := newTestCluster(t, 3, nil, nil)
			ctx := context.Background()
			x := homedAt(t, 3, 1)
			seed(t, tc, map[object.ID]int{x: 1})
			held, release := make(chan struct{}), make(chan struct{})
			letGo := sync.OnceFunc(func() { close(release) })
			defer letGo()
			var hold sync.Once
			var lc lockCalls
			var asked atomic.Int64 // node 2's retrieves
			tc.net.SetInterceptor(func(m *transport.Message) bool {
				if lc.isReply(m) {
					hold.Do(func() {
						close(held)
						<-release
					})
				}
				if m.Kind == KindRetrieve && m.From == 2 && !m.IsReply && asked.Add(1) == 2 {
					// The window has been met; this request goes out once x
					// is at node 0 and published.
					letGo()
					for end := time.Now().Add(2 * time.Second); !(tc.rts[0].Store().Owns(x) && !isLocked(tc.rts[0].Store(), x)) && time.Now().Before(end); {
						time.Sleep(100 * time.Microsecond)
					}
				}
				return true
			})
			done := make(chan error, 1)
			go func() {
				done <- tc.rts[0].Atomic(ctx, "w", func(tx *Txn) error { return tx.Write(ctx, x, &box{N: 7}) })
			}()
			<-held
			tc.rts[2].Locator().NoteOwner(x, hint)
			if got := readBox(t, tc.rts[2], x); got != 7 {
				t.Fatalf("node 2 read %d, want 7", got)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if m := tc.rts[2].Metrics().Snapshot(); m.TotalAborts() != 0 || m.StaleHops != 1 || asked.Load() != 2 {
				t.Fatalf("node 2: %d aborts, %d stale hops, %d retrieves; want 0, 1, 2", m.TotalAborts(), m.StaleHops, asked.Load())
			}
		})
	}
}

// TestPublishWaveIsOneMessagePerNode: node 0 commits five writes — p (owner
// and home node 1), q (owner 1, home 2), r (owner 2, home 3), s (owner 2,
// home 0) and u (its own, home 4). The homes wave is one message to each of
// nodes 2 and 3 — the homes other than node 0 and the object's old owner —
// both in flight together; node 1, an old owner whose objects are homed at
// itself or here, and node 4, home of an object that stays, hear nothing
// after the lock. A commit of p and s alone, every home the committer or the
// old owner, sends no homes message at all.
func TestPublishWaveIsOneMessagePerNode(t *testing.T) {
	tc := newTestCluster(t, 5, nil, nil)
	ctx := context.Background()
	ids := homedAtEach(t, 5, 1, 2, 3, 0, 4)
	p, q, r, s, u := ids[0], ids[1], ids[2], ids[3], ids[4]
	seed(t, tc, map[object.ID]int{p: 1, q: 1, r: 2, s: 2, u: 0})
	var log routeLog
	tc.net.SetInterceptor(holdHomesWave(t, 2, log.intercept))
	commit := func(oids ...object.ID) map[transport.NodeID]int {
		t.Helper()
		if err := tc.rts[0].Atomic(ctx, "w", func(tx *Txn) error {
			for _, oid := range oids {
				if err := tx.Update(ctx, oid, bump); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		homes := map[transport.NodeID]int{}
		for _, m := range log.take() {
			if m.kind == kindUpdateBatch {
				t.Fatalf("a kind-6 directory update was sent: %v", m)
			}
			if m.kind == KindCommitObjectBatch {
				homes[m.to]++
			}
		}
		return homes
	}

	if homes := commit(p, q, r, s, u); len(homes) != 2 || homes[2] != 1 || homes[3] != 1 {
		t.Fatalf("homes messages per node = %v, want one each to nodes 2 and 3", homes)
	}
	for _, oid := range []object.ID{p, q, r, s, u} {
		if !tc.rts[0].Store().Owns(oid) || homeSays(t, tc.rts[4], oid) != 0 {
			t.Fatalf("%s is not at node 0, or its home does not say so", oid)
		}
	}

	ps := homedAtEach(t, 5, 1, 0, 0)
	seed(t, tc, map[object.ID]int{ps[1]: 1, ps[2]: 2})
	tc.net.SetInterceptor(log.intercept)
	before := tc.rts[0].Metrics().Snapshot()
	if homes := commit(ps[1], ps[2]); len(homes) != 0 {
		t.Fatalf("homes messages per node = %v, want none: every home is node 0", homes)
	}
	m := tc.rts[0].Metrics().Snapshot()
	m.Sub(before)
	if m.CommitRounds != 1 || m.CommitMsgs != 2 {
		t.Fatalf("commit took %d waves and %d messages, want 1 and 2: the locks alone", m.CommitRounds, m.CommitMsgs)
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
// answers Moved to node 1. Then node 0 writes x, and the reply to its lock,
// which brings x back from node 1, is held. A retrieve served at node 0 in
// that window is answered NotOwner — ask the home — and not Moved to node 1,
// which is sending x back.
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
	var lc lockCalls
	tc.net.SetInterceptor(func(m *transport.Message) bool {
		// Node 1's reply to the lock, held on node 1's goroutine serving node
		// 0.
		if lc.isReply(m) && m.From == 1 {
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

// TestCommitMigrationOfAGoneObjectFails: once a lock has taken an object
// away from its owner, a lock claiming it again — from another transaction
// or from a new call of the same one — takes nothing: the owner answers
// where the object went. A copy of the first request is never served again
// (the endpoint's floor), so no migration has to be replayable.
func TestCommitMigrationOfAGoneObjectFails(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	rt0, rt1 := tc.rts[0], tc.rts[1]
	ctx := context.Background()

	if err := rt0.CreateRoot(ctx, "mig", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	// lock sends node 1's one-entry locking retrieve under lockID to node 0.
	lock := func(lockID uint64) retrieveResp {
		t.Helper()
		body, err := rt1.ep.Call(ctx, 0, KindRetrieve, retrieveReq{TxID: 77, Mode: sched.Write, Prefetch: true,
			LockID: lockID, Oids: []object.ID{"mig"}})
		if err != nil {
			t.Fatalf("lock call: %v", err)
		}
		return body.(retrieveResp)
	}
	// The first lock takes the object from node 0.
	if r := lock(77); !r.Locked || r.Results[0].Status != statusOK {
		t.Fatalf("lock: %+v", r)
	}
	if rt0.Store().Owns("mig") {
		t.Fatal("object still owned by old owner after the lock took it")
	}
	// A new call of the same transaction finds the object gone, and so does
	// a different transaction claiming it.
	for _, lockID := range []uint64{77, 78} {
		if r := lock(lockID); r.Locked || r.Results[0].Status != statusMoved || r.Results[0].MovedTo != 1 {
			t.Fatalf("a second lock (identity %d) of a gone object: %+v, want moved to node 1", lockID, r)
		}
	}
}
