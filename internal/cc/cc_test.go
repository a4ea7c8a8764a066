package cc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"dstm/internal/cluster"
	"dstm/internal/object"
	"dstm/internal/transport"
	"dstm/internal/vclock"
)

// newCluster builds n directory services over an in-memory network.
func newCluster(t *testing.T, n int) []*Service {
	t.Helper()
	net := transport.NewNetwork(nil)
	t.Cleanup(func() { net.Close() })
	svcs := make([]*Service, n)
	for i := 0; i < n; i++ {
		ep := cluster.NewEndpoint(net.Endpoint(transport.NodeID(i)), &vclock.Clock{})
		svcs[i] = NewService(ep, n)
	}
	return svcs
}

func TestHomeOfInRangeAndStable(t *testing.T) {
	f := func(s string, n uint8) bool {
		size := int(n%16) + 1
		h := HomeOf(object.ID(s), size)
		return h >= 0 && int(h) < size && h == HomeOf(object.ID(s), size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHomeOfDegenerateSize(t *testing.T) {
	if h := HomeOf("x", 0); h != 0 {
		t.Fatalf("HomeOf with size 0 = %d", h)
	}
}

func TestRegisterAndLocate(t *testing.T) {
	svcs := newCluster(t, 4)
	ctx := context.Background()

	if _, _, err := svcs[1].RegisterBatch(ctx, []object.ID{"obj/a"}, 1); err != nil {
		t.Fatal(err)
	}
	// Every node must resolve the same owner.
	for i, s := range svcs {
		owner, err := s.Locate(ctx, "obj/a")
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if owner != 1 {
			t.Fatalf("node %d located owner %d, want 1", i, owner)
		}
	}
}

func TestLocateUnknown(t *testing.T) {
	svcs := newCluster(t, 3)
	_, err := svcs[0].Locate(context.Background(), "missing")
	if !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("err = %v, want ErrUnknownObject", err)
	}
}

func TestRegisterConflict(t *testing.T) {
	svcs := newCluster(t, 3)
	ctx := context.Background()
	if _, _, err := svcs[0].RegisterBatch(ctx, []object.ID{"obj/x"}, 0); err != nil {
		t.Fatal(err)
	}
	// Registration is strict: even the same owner cannot re-register (a
	// duplicate create must fail).
	if _, _, err := svcs[0].RegisterBatch(ctx, []object.ID{"obj/x"}, 0); err == nil {
		t.Fatal("same-owner re-register succeeded; creates must be strict")
	}
	// Different owner: rejected.
	if _, _, err := svcs[1].RegisterBatch(ctx, []object.ID{"obj/x"}, 1); err == nil {
		t.Fatal("conflicting register succeeded")
	}
}

func TestUpdateOwnerAndHints(t *testing.T) {
	svcs := newCluster(t, 4)
	ctx := context.Background()
	if _, _, err := svcs[2].RegisterBatch(ctx, []object.ID{"obj/m"}, 2); err != nil {
		t.Fatal(err)
	}
	// Node 0 caches the owner hint.
	if owner, err := svcs[0].Locate(ctx, "obj/m"); err != nil || owner != 2 {
		t.Fatalf("locate: %d, %v", owner, err)
	}
	// Ownership migrates to node 3: its homes wave reaches the home.
	if err := svcs[HomeOf("obj/m", 4)].Moved([]object.ID{"obj/m"}, 3); err != nil {
		t.Fatal(err)
	}
	// Node 0 still has the stale hint...
	if owner, _ := svcs[0].Locate(ctx, "obj/m"); owner != 2 {
		t.Fatalf("expected stale hint 2, got %d", owner)
	}
	// ...until it relocates.
	owner, err := svcs[0].Relocate(ctx, "obj/m")
	if err != nil || owner != 3 {
		t.Fatalf("relocate: %d, %v", owner, err)
	}
	// And the refreshed hint sticks.
	if owner, _ := svcs[0].Locate(ctx, "obj/m"); owner != 3 {
		t.Fatalf("hint not refreshed: %d", owner)
	}
}

func TestUpdateUnregistered(t *testing.T) {
	svcs := newCluster(t, 3)
	if err := svcs[HomeOf("ghost", 3)].Moved([]object.ID{"ghost"}, 1); err == nil {
		t.Fatal("Moved at the home of an unregistered object succeeded")
	}
}

// idHomedAt returns an object ID starting with prefix whose home, in a cluster
// of n nodes, is home.
func idHomedAt(t *testing.T, prefix string, n, home int) object.ID {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if id := object.ID(fmt.Sprintf("%s%d", prefix, i)); HomeOf(id, n) == transport.NodeID(home) {
			return id
		}
	}
	t.Fatalf("no object ID homed at node %d of %d", home, n)
	return ""
}

// TestHomeAnswersFromItsShard: a node locates an object homed at itself from
// its directory shard — with no message, and whatever its hint says.
func TestHomeAnswersFromItsShard(t *testing.T) {
	svcs := newCluster(t, 3)
	ctx := context.Background()
	id := idHomedAt(t, "obj/h", 3, 0)
	if _, _, err := svcs[1].RegisterBatch(ctx, []object.ID{id}, 1); err != nil {
		t.Fatal(err)
	}
	svcs[0].NoteOwner(id, 2) // the hint and the shard disagree
	if owner, err := svcs[0].Locate(ctx, id); err != nil || owner != 1 {
		t.Fatalf("Locate = %d, %v; want the shard's answer, node 1", owner, err)
	}
	owners, msgs, err := svcs[0].LocateBatch(ctx, []object.ID{id})
	if err != nil || msgs != 0 || owners[id] != 1 {
		t.Fatalf("LocateBatch = %v, %d msgs, %v; want node 1, 0 msgs", owners, msgs, err)
	}
}

// TestMovedUpdatesShardAndHints: one call tells a node where a commit's
// objects went — the directory entry for the one homed there, a hint for the
// other — and unregistered siblings do not stop either.
func TestMovedUpdatesShardAndHints(t *testing.T) {
	svcs := newCluster(t, 3)
	ctx := context.Background()
	here, there, ghost := idHomedAt(t, "obj/h", 3, 0), idHomedAt(t, "obj/h", 3, 1), idHomedAt(t, "ghost", 3, 0)
	for _, id := range []object.ID{here, there} {
		if _, _, err := svcs[1].RegisterBatch(ctx, []object.ID{id}, 1); err != nil {
			t.Fatal(err)
		}
	}
	err := svcs[0].Moved([]object.ID{ghost, here, there}, 2)
	if err == nil || !strings.Contains(err.Error(), string(ghost)) {
		t.Fatalf("Moved = %v, want the unregistered %s", err, ghost)
	}
	owners, msgs, err := svcs[0].LocateBatch(ctx, []object.ID{here, there})
	if err != nil || msgs != 0 || owners[here] != 2 || owners[there] != 2 {
		t.Fatalf("node 0 locates %v with %d msgs (%v); want both at node 2, 0 msgs", owners, msgs, err)
	}
	// The home of `there` was not told: its entry still names node 1.
	if owner, _ := svcs[2].Relocate(ctx, there); owner != 1 {
		t.Fatalf("home of %s names node %d, want 1", there, owner)
	}
	if owner, _ := svcs[2].Relocate(ctx, here); owner != 2 {
		t.Fatalf("home of %s names node %d, want 2", here, owner)
	}
}

func TestNoteOwnerShortCircuitsLookup(t *testing.T) {
	svcs := newCluster(t, 3)
	ctx := context.Background()
	// No registration at all; a pushed hint must be honoured locally.
	svcs[0].NoteOwner("pushed", 2)
	owner, err := svcs[0].Locate(ctx, "pushed")
	if err != nil || owner != 2 {
		t.Fatalf("locate with noted owner: %d, %v", owner, err)
	}
	// Invalidate drops it; the home has no record, so the lookup fails.
	svcs[0].InvalidateHint("pushed")
	if _, err := svcs[0].Locate(ctx, "pushed"); err == nil {
		t.Fatal("locate after invalidate should hit the home and fail")
	}
}

func TestConcurrentRegistersDistinctObjects(t *testing.T) {
	const n = 5
	svcs := newCluster(t, n)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			owner := transport.NodeID(i % n)
			oid := object.ID(fmt.Sprintf("obj/%d", i))
			if _, _, err := svcs[owner].RegisterBatch(ctx, []object.ID{oid}, owner); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		oid := object.ID(fmt.Sprintf("obj/%d", i))
		owner, err := svcs[0].Locate(ctx, oid)
		if err != nil {
			t.Fatal(err)
		}
		if owner != transport.NodeID(i%n) {
			t.Fatalf("obj/%d owner = %d, want %d", i, owner, i%n)
		}
	}
}

func TestHomeDistribution(t *testing.T) {
	// Homes should spread across the cluster, not pile on one node.
	const n = 8
	counts := make([]int, n)
	for i := 0; i < 800; i++ {
		counts[HomeOf(object.ID(fmt.Sprintf("k/%d", i)), n)]++
	}
	for node, c := range counts {
		if c == 0 {
			t.Fatalf("node %d got no homes out of 800", node)
		}
	}
}

// TestLocateBatchFailedCallOutranksUnknown: a lookup that could not reach
// one home is a failed lookup, whatever order the homes answer in, even when
// another home has no entry for its object.
func TestLocateBatchFailedCallOutranksUnknown(t *testing.T) {
	net := transport.NewNetwork(nil)
	t.Cleanup(func() { net.Close() })
	// Nodes 0 and 1 of three: node 2, a home, is not on the network.
	svcs := make([]*Service, 2)
	for i := range svcs {
		svcs[i] = NewService(cluster.NewEndpoint(net.Endpoint(transport.NodeID(i)), &vclock.Clock{}), 3)
	}
	ids := []object.ID{idHomedAt(t, "ghost", 3, 1), idHomedAt(t, "lost", 3, 2)}
	for i := 0; i < 20; i++ {
		_, _, err := svcs[0].LocateBatch(context.Background(), ids)
		if err == nil || errors.Is(err, ErrUnknownObject) {
			t.Fatalf("try %d: LocateBatch = %v, want the failed call to node 2", i, err)
		}
	}
}

// TestGossipDrainsHeldObjects: the objects a node took ride on its next
// message to each peer, once: a send drains that peer's list, keeps only
// the objects the node still names itself the owner of, and keeps at most
// the last maxTook. An empty list costs no allocation.
func TestGossipDrainsHeldObjects(t *testing.T) {
	s := newCluster(t, 3)[0]
	s.NoteOwner("kept", 0)
	_ = s.Moved([]object.ID{"kept", "gone", "kept"}, 0) // taken here
	s.NoteOwner("gone", 2)                              // then taken away

	if got, ok := s.gossip(1).(ownerHints); !ok || fmt.Sprint(got.Oids) != "[kept]" {
		t.Fatalf("gossip to node 1 = %v, want [kept]", got)
	}
	if got := s.gossip(1); got != nil {
		t.Fatalf("a second send to node 1 carries %v, want nothing", got)
	}
	if got, ok := s.gossip(2).(ownerHints); !ok || fmt.Sprint(got.Oids) != "[kept]" {
		t.Fatalf("gossip to node 2 = %v, want [kept]: each peer has its own list", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.gossip(1) }); allocs != 0 {
		t.Fatalf("an empty list allocates %.0f/op, want 0", allocs)
	}
	if _ = s.Moved([]object.ID{"kept"}, 2); s.gossip(1) != nil {
		t.Fatal("a move to another node was logged as taken here")
	}
	s.NoteOwner("kept", 0)

	ids := make([]object.ID, maxTook+10)
	for i := range ids {
		ids[i] = object.ID(fmt.Sprintf("obj/%d", i))
		s.NoteOwner(ids[i], 0)
	}
	_ = s.Moved(ids, 0)
	got, _ := s.gossip(1).(ownerHints)
	if fmt.Sprint(got.Oids) != fmt.Sprint(ids[10:]) {
		t.Fatalf("after %d took, gossip carries %d objects from %v, want the last %d", len(ids), len(got.Oids), got.Oids[:1], maxTook)
	}
}

// TestHeardKeepsHintsButNotForItsShard: a peer's gossip becomes an owner
// hint, except for an object homed at the receiver — its directory shard is
// authoritative — and one the receiver names itself the owner of.
func TestHeardKeepsHintsButNotForItsShard(t *testing.T) {
	s := newCluster(t, 3)[0]
	here, there, mine := idHomedAt(t, "obj/h", 3, 0), idHomedAt(t, "obj/t", 3, 1), idHomedAt(t, "obj/m", 3, 2)
	s.NoteOwner(mine, 0)
	s.heard(2, ownerHints{Oids: []object.ID{here, there, mine}})
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.hints[here]; ok {
		t.Fatalf("gossip of %s, homed at the receiver, became a hint", here)
	}
	if s.hints[there] != 2 || s.hints[mine] != 0 {
		t.Fatalf("hints %s=%d %s=%d, want node 2 and the receiver itself", there, s.hints[there], mine, s.hints[mine])
	}
}

// TestRegisteredObjectIsGossiped: a registration is gossiped from its
// owner. Node 2 hears of the object on the first message node 1 sends it —
// here a reply — and then locates it with no message.
func TestRegisteredObjectIsGossiped(t *testing.T) {
	svcs := newCluster(t, 3)
	ctx := context.Background()
	id, other := idHomedAt(t, "obj/g", 3, 0), idHomedAt(t, "obj/o", 3, 1)
	for _, oid := range []object.ID{id, other} {
		if _, _, err := svcs[1].RegisterBatch(ctx, []object.ID{oid}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, msgs, err := svcs[2].LocateBatch(ctx, []object.ID{other}); err != nil || msgs != 1 {
		t.Fatalf("first lookup: %d msgs, %v; want one lookup at node 1", msgs, err)
	}
	owners, msgs, err := svcs[2].LocateBatch(ctx, []object.ID{id})
	if err != nil || msgs != 0 || owners[id] != 1 {
		t.Fatalf("node 2 locates %v with %d msgs (%v); want node 1 and no message", owners, msgs, err)
	}
}

// TestAskHomesReadsNoHint: the directory check's lookup is the home's
// answer, not the hint's — the home names node 1, a hint names node 2.
func TestAskHomesReadsNoHint(t *testing.T) {
	svcs := newCluster(t, 4)
	ctx := context.Background()
	id := idHomedAt(t, "obj/a", 4, 0)
	if _, _, err := svcs[1].RegisterBatch(ctx, []object.ID{id}, 1); err != nil {
		t.Fatal(err)
	}
	svcs[3].NoteOwner(id, 2)
	if owner, _ := svcs[3].Locate(ctx, id); owner != 2 {
		t.Fatalf("Locate = %d, want the hint, node 2", owner)
	}
	owners, msgs, err := svcs[3].AskHomes(ctx, []object.ID{id})
	if err != nil || msgs != 1 || owners[id] != 1 {
		t.Fatalf("AskHomes = %v, %d msgs, %v; want the home's node 1 in one lookup", owners, msgs, err)
	}
	svcs[3].NoteOwner(id, 2)
	if owner, err := svcs[3].Relocate(ctx, id); err != nil || owner != 1 {
		t.Fatalf("Relocate = %d, %v; want the home's node 1", owner, err)
	}
}
