package object

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

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
// One mutex guards the whole store, so LockBatch applies a whole batch as
// one critical section.
//
// A lock request can reach the store after its own identity's release (an
// at-least-once retransmission, a reply the requester gave up on). Served,
// it would orphan the lock until a lease reaps it. So a release that finds
// the identity not holding the lock, and a lease expiry, fence the
// (object, identity) pair for good, and LockBatch refuses a fenced entry.
// The fence lives beside the records, not in one, so it also holds for an
// object installed after the release; a release that unlocks a lock it
// holds plants none.
type Store struct {
	mu     sync.Mutex
	objs   map[ID]*record
	fenced map[fence]bool
	fences []fence // fenced in planting order, oldest first
	trace  atomic.Pointer[TraceFn]
}

// fence is one (object, lock identity) pair refused by LockBatch.
type fence struct {
	id ID
	tx uint64
}

// maxFences bounds the store's fences: a release and the request it
// overtook are sent a moment apart, so a fence that outlives thousands of
// later ones has long done its work.
const maxFences = 4096

// fence refuses tx's later lock requests for id; the caller holds s.mu.
func (s *Store) fence(id ID, tx uint64) {
	f := fence{id, tx}
	n := len(s.fenced)
	s.fenced[f] = true
	if len(s.fenced) == n { // already fenced: keep its place in the FIFO
		return
	}
	s.fences = append(s.fences, f)
	if len(s.fences) > maxFences {
		delete(s.fenced, s.fences[0])
		s.fences = s.fences[1:]
	}
}

// SetTrace installs a debug callback invoked (under the store's lock) for
// every lock-state change: "lock-ok", "lock-expired", "unlock", "remove",
// "commit", "install", "install-locked". Pass nil to disable. Intended for
// tests and debugging.
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
	return &Store{objs: make(map[ID]*record), fenced: make(map[fence]bool)}
}

// Install inserts or replaces the authoritative copy of an object,
// unlocked. Used at object creation and when ownership migrates to this
// node after a commit.
func (s *Store) Install(id ID, val Value, ver Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emit("install", id, 0, ver.Clock)
	s.objs[id] = &record{val: val, ver: ver}
}

// Snapshot returns a deep copy of the object's value plus its version and
// lock state. ok is false when this node does not own the object.
func (s *Store) Snapshot(id ID) (val Value, ver Version, locked bool, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.objs[id]
	if !ok {
		return nil, Version{}, false, false
	}
	return r.val.Copy(), r.ver, r.lockTx != 0, true
}

// State returns the object's version and the transaction holding its commit
// lock (0 when unlocked). ok is false when the object is not owned here.
func (s *Store) State(id ID) (ver Version, lockedBy uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.objs[id]
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
// commit-lock every entry for tx as one critical section: it evaluates all
// entries and applies the locks only when every entry would succeed. An
// entry is locked if the object is owned here, unlocked (or already locked
// by tx), at version Expect, and not fenced for tx (see Store).
//
// applied reports whether the locks were taken. When applied is false, NO
// lock was taken, so a racing batch never observes a half-locked prefix of
// this one; the per-entry results say which entries failed (stale / busy,
// fenced included / not-owner) and which would have succeeded (LockOK).
func (s *Store) LockBatch(tx uint64, entries []LockEntry) (results []LockResult, applied bool) {
	results = make([]LockResult, len(entries))
	if len(entries) == 0 {
		return results, true
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	// Evaluation pass: nothing is locked, so a failed batch leaves the store
	// exactly as it found it, and nothing is narrated.
	applied = true
	for i, e := range entries {
		r, ok := s.objs[e.ID]
		switch {
		case !ok:
			results[i] = LockNotOwner
		case s.fenced[fence{e.ID, tx}]:
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
		r := s.objs[e.ID]
		r.lockTx = tx
		r.lockAt = now
		s.emit("lock-ok", e.ID, tx, 0)
	}
	return results, true
}

// ExpireLocks force-releases every commit lock held for at least lease,
// returning the affected object IDs. The expired holder is fenced (see
// Store) so its delayed lock requests cannot resurrect the lock. This is
// the abort-on-owner-crash path: a committer that died (or was partitioned
// away) mid-commit cannot wedge the objects it had locked — after the lease they return to
// circulation and queued requesters get served.
func (s *Store) ExpireLocks(lease time.Duration) []ID {
	now := time.Now()
	var expired []ID
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, r := range s.objs {
		if r.lockTx != 0 && now.Sub(r.lockAt) >= lease {
			s.emit("lock-expired", id, r.lockTx, 0)
			s.fence(id, r.lockTx)
			r.lockTx = 0
			expired = append(expired, id)
		}
	}
	return expired
}

// Unlock releases the commit lock on id if held by tx. Releasing a lock
// that tx does not hold — or an object not here — fences tx for id instead
// (see Store), so a delayed lock request from tx cannot orphan the object
// after its owner already served the release.
func (s *Store) Unlock(id ID, tx uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.objs[id]
	if !ok {
		s.fence(id, tx)
		return
	}
	if r.lockTx == tx {
		r.lockTx = 0
		s.emit("unlock", id, tx, 0)
		return
	}
	s.fence(id, tx)
}

// InstallLocked inserts an object already commit-locked by tx, so it is
// invisible to plain snapshots' unlocked path until the creating
// transaction commits (UpdateCommitted) or rolls back (Remove).
func (s *Store) InstallLocked(id ID, val Value, ver Version, tx uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emit("install-locked", id, tx, 0)
	s.objs[id] = &record{val: val, ver: ver, lockTx: tx, lockAt: time.Now()}
}

// UpdateCommitted installs a new committed value and version for an object
// whose commit lock is held by tx, then releases the lock. Used when the
// committing transaction's node already owns the object (no migration).
func (s *Store) UpdateCommitted(id ID, val Value, ver Version, tx uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.objs[id]
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
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.objs[id]
	if !ok {
		return fmt.Errorf("store: remove %q: not owned", id)
	}
	if r.lockTx != tx {
		return fmt.Errorf("store: remove %q: lock held by tx %d, not %d", id, r.lockTx, tx)
	}
	s.emit("remove", id, tx, 0)
	delete(s.objs, id)
	return nil
}

// Owns reports whether this node currently owns id.
func (s *Store) Owns(id ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objs[id]
	return ok
}

// Locked reports whether id is owned here and commit-locked.
func (s *Store) Locked(id ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.objs[id]
	return ok && r.lockTx != 0
}

// Len returns the number of objects owned by this node.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objs)
}

// IDs returns the IDs of all objects owned here (unordered snapshot).
func (s *Store) IDs() []ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ID, 0, len(s.objs))
	for id := range s.objs {
		out = append(out, id)
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
