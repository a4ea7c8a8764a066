package object

import (
	"fmt"
	"sort"
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
type Store struct {
	shards [storeShards]shard
	trace  atomic.Pointer[TraceFn]
}

type shard struct {
	mu   sync.Mutex
	objs map[ID]*record
}

func (s *Store) shardOf(id ID) *shard {
	return &s.shards[id.Hash()&(storeShards-1)]
}

// SetTrace installs a debug callback invoked (under the owning shard's
// lock) for every lock-state transition: "lock-ok", "lock-busy",
// "lock-stale", "lock-refused", "lock-expired", "unlock", "unlock-miss",
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
	// refused is a small ring of one-shot tombstones: Unlock by a
	// transaction that does not hold the lock records its ID here, so a
	// stale Lock request from that transaction arriving *after* its
	// release (request/handler reordering, or a lock reply lost to
	// cancellation) is denied instead of orphaning the lock forever.
	refused    [4]uint64
	refusedIdx uint8
}

// refuse records tx in the tombstone ring.
func (r *record) refuse(tx uint64) {
	r.refused[r.refusedIdx%4] = tx
	r.refusedIdx++
}

// consumeRefusal reports whether tx was tombstoned, clearing the entry.
func (r *record) consumeRefusal(tx uint64) bool {
	for i := range r.refused {
		if r.refused[i] == tx {
			r.refused[i] = 0
			return true
		}
	}
	return false
}

// refusedFor reports whether tx is tombstoned without consuming the entry
// (used by the read-only evaluation pass of LockBatch).
func (r *record) refusedFor(tx uint64) bool {
	for i := range r.refused {
		if r.refused[i] == tx {
			return true
		}
	}
	return false
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].objs = make(map[ID]*record)
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

// Version returns the object's current version. ok is false when the object
// is not owned here.
func (s *Store) Version(id ID) (Version, bool) {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.objs[id]
	if !ok {
		return Version{}, false
	}
	return r.ver, true
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

// Lock acquires the commit lock on id for transaction tx if the object is
// owned here, currently unlocked (or already locked by tx), and its version
// still equals expect. It returns:
//
//	LockOK       – lock acquired (or re-entered)
//	LockStale    – version mismatch: the caller read a stale copy
//	LockBusy     – another transaction holds the commit lock
//	LockNotOwner – this node does not own the object
func (s *Store) Lock(id ID, tx uint64, expect Version) LockResult {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.lockLocked(sh, id, tx, expect)
}

// lockLocked is Lock's body; the caller holds sh.mu.
func (s *Store) lockLocked(sh *shard, id ID, tx uint64, expect Version) LockResult {
	r, ok := sh.objs[id]
	if !ok {
		return LockNotOwner
	}
	if tx != 0 && r.consumeRefusal(tx) {
		// The transaction already released (or abandoned) this lock; its
		// stale acquire must not resurrect it.
		s.emit("lock-refused", id, tx, 0)
		return LockBusy
	}
	if r.lockTx != 0 && r.lockTx != tx {
		s.emit("lock-busy", id, tx, 0)
		return LockBusy
	}
	if !r.ver.Equal(expect) {
		s.emit("lock-stale", id, tx, 0)
		return LockStale
	}
	r.lockTx = tx
	r.lockAt = time.Now()
	s.emit("lock-ok", id, tx, 0)
	return LockOK
}

// LockEntry is one object of a LockBatch request.
type LockEntry struct {
	ID     ID
	Expect Version
}

// LockBatch attempts to commit-lock every entry for tx as one atomic step:
// it holds the union of the entries' shard locks (acquired in ascending
// shard order, so concurrent batches cannot deadlock) while evaluating all
// entries, and applies the locks only when every entry would succeed.
//
// applied reports whether the locks were taken. When applied is false, NO
// lock was taken — the per-entry results tell the caller which entries
// failed (stale / busy / not-owner) and which would have succeeded
// (LockOK), so a single bad entry aborts the commit precisely while its
// sibling entries roll back for free. All-or-nothing acquisition also
// means a racing batch never observes a half-locked prefix of this one.
func (s *Store) LockBatch(tx uint64, entries []LockEntry) (results []LockResult, applied bool) {
	results = make([]LockResult, len(entries))
	if len(entries) == 0 {
		return results, true
	}

	s.lockShardsFor(entries)
	defer s.unlockShardsFor(entries)

	// Evaluation pass: no mutation, so a failed batch leaves the store
	// exactly as it found it (tombstones included).
	applied = true
	for i, e := range entries {
		r, ok := s.shardOf(e.ID).objs[e.ID]
		switch {
		case !ok:
			results[i] = LockNotOwner
		case tx != 0 && r.refusedFor(tx):
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
		// Narrate the failures (but not the would-have-succeeded entries:
		// nothing was locked, so emitting lock-ok would lie to the trace).
		for i, e := range entries {
			switch results[i] {
			case LockBusy:
				s.emit("lock-busy", e.ID, tx, 0)
			case LockStale:
				s.emit("lock-stale", e.ID, tx, 0)
			}
		}
		return results, false
	}
	now := time.Now()
	for _, e := range entries {
		r := s.shardOf(e.ID).objs[e.ID]
		if tx != 0 {
			// Consume matching tombstones only on the apply path; the
			// evaluation pass proved none exists for tx.
			r.consumeRefusal(tx)
		}
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
// returning the affected object IDs. The expired holder is tombstoned (see
// record.refuse) so its delayed lock, commit, or unlock messages cannot
// resurrect or corrupt the lock state. This is the abort-on-owner-crash
// path: a committer that died (or was partitioned away) mid-commit cannot
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
				r.refuse(r.lockTx)
				r.lockTx = 0
				expired = append(expired, id)
			}
		}
		sh.mu.Unlock()
	}
	return expired
}

// Unlock releases the commit lock on id if held by tx. Releasing a lock
// that tx does not hold plants a one-shot refusal marker instead (see
// record.refused), so a delayed Lock request from tx cannot orphan the
// object after its owner already processed the release.
func (s *Store) Unlock(id ID, tx uint64) {
	sh := s.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.objs[id]
	if !ok {
		s.emit("unlock-noobj", id, tx, 0)
		return
	}
	if r.lockTx == tx {
		r.lockTx = 0
		s.emit("unlock", id, tx, 0)
		return
	}
	s.emit("unlock-miss", id, tx, 0)
	r.refuse(tx)
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

// SortIDs orders ids ascending — the cluster-wide deterministic lock order
// used by the commit protocol, within and across per-owner batches.
func SortIDs(ids []ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// LockResult is the outcome of a Store.Lock attempt.
type LockResult uint8

// Lock outcomes; see Store.Lock.
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
