package object

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// storeShards is the number of independently locked shards in a Store. A
// power of two so the shard index is a mask of the ID hash. 16 shards keep
// lock hold times short under the batched commit path, where one handler
// applies a whole per-owner batch while retrieves for unrelated objects
// keep flowing on other shards.
const storeShards = 16

// TraceFn is the store's debug callback type; see Store.SetTrace. a carries
// the installed version clock for "install" and "commit", zero otherwise.
type TraceFn func(op string, id ID, tx, a uint64)

// Store holds the authoritative copies of the objects currently owned by
// one node, together with per-object commit-lock state. All methods are
// safe for concurrent use.
//
// The commit lock is what creates the scheduling window the paper exploits:
// while a committing transaction validates an object (holds its lock),
// every incoming retrieve request for that object is a conflict that the
// node's scheduler must resolve (abort vs enqueue).
//
// The store is sharded by ID hash: independent objects contend on
// different mutexes, and the batched commit protocol (LockBatch) takes the
// union of its entries' shard locks — in ascending shard order, so
// concurrent batches cannot deadlock — to apply a whole batch as one
// atomic step.
//
// A lock request can reach the store after its own identity's release (an
// at-least-once retransmission, a reply the requester gave up on). Served,
// it would orphan the lock until a lease reaps it. So a release that finds
// the identity not holding the lock, and a lease expiry, fence the
// (object, identity) pair for good, and LockBatch refuses a fenced entry.
// The fence lives in the object's shard, not its record, so it also holds
// for an object installed after the release; a release that unlocks a lock
// it holds plants none.
type Store struct {
	shards [storeShards]shard
	trace  atomic.Pointer[TraceFn]
}

type shard struct {
	mu     sync.Mutex
	objs   map[ID]*record
	fenced map[fence]bool
	fences []fence // fenced in planting order, oldest first
}

// fence is one (object, lock identity) pair refused by LockBatch.
type fence struct {
	id ID
	tx uint64
}

// shardFences bounds each shard's fences, 4,096 per store: a release and the
// request it overtook are sent a moment apart, so a fence that outlives
// thousands of later ones has long done its work.
const shardFences = 4096 / storeShards

// fence refuses tx's later lock requests for id; the caller holds sh.mu.
func (sh *shard) fence(id ID, tx uint64) {
	f := fence{id, tx}
	n := len(sh.fenced)
	sh.fenced[f] = true
	if len(sh.fenced) == n { // already fenced: keep its place in the FIFO
		return
	}
	sh.fences = append(sh.fences, f)
	if len(sh.fences) > shardFences {
		delete(sh.fenced, sh.fences[0])
		sh.fences = sh.fences[1:]
	}
}

func (s *Store) shardOf(id ID) *shard {
	return &s.shards[id.Hash()&(storeShards-1)]
}

// SetTrace installs a debug callback invoked (under the owning shard's
// lock) for every lock-state change: "lock-ok", "lock-expired", "unlock",
// "remove", "commit", "install", "install-locked". Pass nil to disable.
// Intended for tests and debugging.
func (s *Store) SetTrace(f TraceFn) {
	if f == nil {
		s.trace.Store(nil)
		return
	}
	s.trace.Store(&f)
}

func (s *Store) emit(op string, id ID, tx, a uint64) {
	if f := s.trace.Load(); f != nil {
		(*f)(op, id, tx, a)
	}
}

type record struct {
	val    Value
	ver    Version
	lockTx uint64    // transaction ID holding the commit lock; 0 = unlocked
	lockAt time.Time // when the commit lock was taken (lease accounting)
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].objs = make(map[ID]*record)
		s.shards[i].fenced = make(map[fence]bool)
	}
	return s
}

// Install inserts or replaces the authoritative copy of an object,
// unlocked. Used at object creation and when ownership migrates to this
// node after a commit.
func (s *Store) Install(id ID, val Value, ver Version) {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.emit("install", id, 0, ver.Clock)
	sh.objs[id] = &record{val: val, ver: ver}
}

// Snapshot returns a deep copy of the object's value plus its version and
// lock state. ok is false when this node does not own the object.
func (s *Store) Snapshot(id ID) (val Value, ver Version, locked bool, ok bool) {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.objs[id]
	if !ok {
		return nil, Version{}, false, false
	}
	return r.val.Copy(), r.ver, r.lockTx != 0, true
}

// State returns the object's version and the transaction holding its commit
// lock (0 when unlocked). ok is false when the object is not owned here.
func (s *Store) State(id ID) (ver Version, lockedBy uint64, ok bool) {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.objs[id]
	if !ok {
		return Version{}, 0, false
	}
	return r.ver, r.lockTx, true
}

// LockEntry is one object of a LockBatch request.
type LockEntry struct {
	ID     ID
	Expect Version
}

// LockBatch is the store's one way to take a commit lock. It attempts to
// commit-lock every entry for tx as one atomic step: it holds the union of
// the entries' shard locks (acquired in ascending shard order, so
// concurrent batches cannot deadlock) while evaluating all entries, and
// applies the locks only when every entry would succeed. An entry is
// locked if the object is owned here, unlocked (or already locked by tx),
// at version Expect, and not fenced for tx (see Store).
//
// applied reports whether the locks were taken. When applied is false, NO
// lock was taken — the per-entry results tell the caller which entries
// failed (stale / busy, fenced included / not-owner) and which would have
// succeeded (LockOK), so a single bad entry aborts the commit precisely
// while its sibling entries roll back for free. All-or-nothing acquisition also
// means a racing batch never observes a half-locked prefix of this one.
func (s *Store) LockBatch(tx uint64, entries []LockEntry) (results []LockResult, applied bool) {
	results = make([]LockResult, len(entries))
	if len(entries) == 0 {
		return results, true
	}

	s.lockShardsFor(entries)
	defer s.unlockShardsFor(entries)

	// Evaluation pass: nothing is locked, so a failed batch leaves the store
	// exactly as it found it, and nothing is narrated.
	applied = true
	for i, e := range entries {
		sh := s.shardOf(e.ID)
		r, ok := sh.objs[e.ID]
		switch {
		case !ok:
			results[i] = LockNotOwner
		case sh.fenced[fence{e.ID, tx}]:
			results[i] = LockBusy
		case r.lockTx != 0 && r.lockTx != tx:
			results[i] = LockBusy
		case !r.ver.Equal(e.Expect):
			results[i] = LockStale
		default:
			results[i] = LockOK
		}
		if results[i] != LockOK {
			applied = false
		}
	}
	if !applied {
		return results, false
	}
	now := time.Now()
	for _, e := range entries {
		r := s.shardOf(e.ID).objs[e.ID]
		r.lockTx = tx
		r.lockAt = now
		s.emit("lock-ok", e.ID, tx, 0)
	}
	return results, true
}

// lockShardsFor locks the union of the entries' shards in ascending order.
func (s *Store) lockShardsFor(entries []LockEntry) {
	for _, idx := range shardSet(entries) {
		s.shards[idx].mu.Lock()
	}
}

// unlockShardsFor releases what lockShardsFor took.
func (s *Store) unlockShardsFor(entries []LockEntry) {
	for _, idx := range shardSet(entries) {
		s.shards[idx].mu.Unlock()
	}
}

// shardSet returns the sorted, deduplicated shard indices of entries.
func shardSet(entries []LockEntry) []int {
	var mask uint32
	for _, e := range entries {
		mask |= 1 << (e.ID.Hash() & (storeShards - 1))
	}
	out := make([]int, 0, storeShards)
	for i := 0; i < storeShards; i++ {
		if mask&(1<<i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// ExpireLocks force-releases every commit lock held for at least lease,
// returning the affected object IDs. The expired holder is fenced (see
// Store) so its delayed lock requests cannot resurrect the lock. This is
// the abort-on-owner-crash path: a committer that died (or was partitioned away) mid-commit cannot
// wedge the objects it had locked — after the lease they return to
// circulation and queued requesters get served.
func (s *Store) ExpireLocks(lease time.Duration) []ID {
	now := time.Now()
	var expired []ID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id, r := range sh.objs {
			if r.lockTx != 0 && now.Sub(r.lockAt) >= lease {
				s.emit("lock-expired", id, r.lockTx, 0)
				sh.fence(id, r.lockTx)
				r.lockTx = 0
				expired = append(expired, id)
			}
		}
		sh.mu.Unlock()
	}
	return expired
}

// Unlock releases the commit lock on id if held by tx. Releasing a lock
// that tx does not hold — or an object not here — fences tx for id instead
// (see Store), so a delayed lock request from tx cannot orphan the object
// after its owner already served the release.
func (s *Store) Unlock(id ID, tx uint64) {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.objs[id]
	if !ok {
		sh.fence(id, tx)
		return
	}
	if r.lockTx == tx {
		r.lockTx = 0
		s.emit("unlock", id, tx, 0)
		return
	}
	sh.fence(id, tx)
}

// InstallLocked inserts an object already commit-locked by tx, so it is
// invisible to plain snapshots' unlocked path until the creating
// transaction commits (UpdateCommitted) or rolls back (Remove).
func (s *Store) InstallLocked(id ID, val Value, ver Version, tx uint64) {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.emit("install-locked", id, tx, 0)
	sh.objs[id] = &record{val: val, ver: ver, lockTx: tx, lockAt: time.Now()}
}

// UpdateCommitted installs a new committed value and version for an object
// whose commit lock is held by tx, then releases the lock. Used when the
// committing transaction's node already owns the object (no migration).
func (s *Store) UpdateCommitted(id ID, val Value, ver Version, tx uint64) error {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.objs[id]
	if !ok {
		return fmt.Errorf("store: update %q: not owned", id)
	}
	if r.lockTx != tx {
		return fmt.Errorf("store: update %q: lock held by tx %d, not %d", id, r.lockTx, tx)
	}
	r.val = val
	r.ver = ver
	r.lockTx = 0
	s.emit("commit", id, tx, ver.Clock)
	return nil
}

// SnapshotAt is Snapshot. Only the frozen bench/micro.go names it; a
// benchmark PR removes it.
func (s *Store) SnapshotAt(id ID, _, _ uint64) (Value, Version, bool, bool) { return s.Snapshot(id) }

// Remove deletes the object if the caller transaction holds its commit lock
// (ownership is migrating away as part of tx's commit). It returns an error
// if the object is absent or locked by someone else.
func (s *Store) Remove(id ID, tx uint64) error {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.objs[id]
	if !ok {
		return fmt.Errorf("store: remove %q: not owned", id)
	}
	if r.lockTx != tx {
		return fmt.Errorf("store: remove %q: lock held by tx %d, not %d", id, r.lockTx, tx)
	}
	s.emit("remove", id, tx, 0)
	delete(sh.objs, id)
	return nil
}

// Owns reports whether this node currently owns id.
func (s *Store) Owns(id ID) bool {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.objs[id]
	return ok
}

// Locked reports whether id is owned here and commit-locked.
func (s *Store) Locked(id ID) bool {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.objs[id]
	return ok && r.lockTx != 0
}

// Len returns the number of objects owned by this node.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.objs)
		sh.mu.Unlock()
	}
	return n
}

// IDs returns the IDs of all objects owned here (unordered snapshot).
func (s *Store) IDs() []ID {
	var out []ID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id := range sh.objs {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	return out
}

// LockResult is the outcome of one LockBatch entry.
type LockResult uint8

// Lock outcomes; see Store.LockBatch.
const (
	LockOK LockResult = iota
	LockStale
	LockBusy
	LockNotOwner
)

func (lr LockResult) String() string {
	switch lr {
	case LockOK:
		return "ok"
	case LockStale:
		return "stale"
	case LockBusy:
		return "busy"
	case LockNotOwner:
		return "not-owner"
	default:
		return fmt.Sprintf("LockResult(%d)", uint8(lr))
	}
}
