package object

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// TraceFn is the store's debug callback type; see Store.SetTrace. a carries
// the installed version clock for "install" and "commit", zero otherwise.
type TraceFn func(op string, id ID, tx, a uint64)

// Store is one node's owner record: the authoritative copies of the objects
// it owns with their commit-lock state, and nothing else (where an object
// went once it left is the locator's record, cc.Service). All methods are
// safe for concurrent use.
//
// A value handed to the store is the store's, and nobody changes it (an
// install or an update replaces it): Read hands out the held value, and
// whoever sends one on copies it for its receiver.
//
// The commit lock is what creates the scheduling window the paper exploits:
// while a committing transaction validates an object (holds its lock),
// every incoming retrieve request for that object is a conflict that the
// node's scheduler must resolve (abort vs enqueue).
//
// One mutex guards the whole store, so each batch is one critical section:
// LockBatch applies a whole batch of locks, and Read copies a batch of
// objects, reads the caller's clock and runs the caller's decision on the
// copies — the cut every owner reply (a retrieve, a locking retrieve, a
// hand-off push) is built from, and the moment the scheduler decides it.
//
// Only a lock's holder frees it, on its own node: its release (Unlock), its
// in-place update (UpdateCommitted) or its rollback (Remove); a migration
// (Migrate) hands the lock, with the object, to the node it leaves for.
type Store struct {
	mu    sync.Mutex
	objs  map[ID]*record
	trace atomic.Pointer[TraceFn]
}

// SetTrace installs a debug callback invoked (under the store's lock) for
// every lock-state change: "lock-ok", "unlock", "remove", "migrate",
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
	lockTx uint64 // transaction ID holding the commit lock; 0 = unlocked
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{objs: make(map[ID]*record)}
}

// Install inserts or replaces the authoritative copy of an object,
// unlocked.
func (s *Store) Install(id ID, val Value, ver Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emit("install", id, 0, ver.Clock)
	s.objs[id] = &record{val: val, ver: ver}
}

// InstallNew installs val as id at the zero version, unlocked, unless the
// store holds id already, and reports whether it did: an object that exists
// keeps its value and version.
func (s *Store) InstallNew(id ID, val Value) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objs[id]; ok {
		return false
	}
	s.emit("install", id, 0, 0)
	s.objs[id] = &record{val: val}
	return true
}

// Copy is one object as Store.Read found it: the store's own value (see
// Store), its version and its commit lock's holder (0 when unlocked).
// Owned is false, and those zero, when this node does not own it.
type Copy struct {
	Val      Value
	Ver      Version
	LockedBy uint64
	Owned    bool
}

// Read appends a Copy of every object of ids to dst, then calls now and
// decide(i, copy of ids[i]) for each copy (each when not nil), all in one
// critical section, and returns the copies with now's result: they are the
// store's state at that clock, and decide sees exactly them. Nothing can
// lock, update, remove or install one of them between the copy, the clock
// and the decision, so a reply built from one Read is a consistent cut, and
// a commit that locks one of them later does so after the clock was read
// and the decision made. now and decide run with the store locked: they
// must not call the store, and must not send a message (a message to this
// node is served on the sender's goroutine, and its handler may call the
// store). Each value is the store's own: its sender copies it (see Store).
func (s *Store) Read(dst []Copy, ids []ID, now func() uint64, decide func(i int, c Copy)) ([]Copy, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := len(dst)
	for _, id := range ids {
		var c Copy
		if r, ok := s.objs[id]; ok {
			c = Copy{Val: r.val, Ver: r.ver, LockedBy: r.lockTx, Owned: true}
		}
		dst = append(dst, c)
	}
	var clock uint64
	if now != nil {
		clock = now()
	}
	for i := start; decide != nil && i < len(dst); i++ {
		decide(i-start, dst[i])
	}
	return dst, clock
}

// Snapshot is Read of one object, without a clock, with a deep copy of its
// value (nil when not owned). Outside tests only the frozen bench/ calls it
// (verify.go, and micro.go through SnapshotAt); a benchmark PR removes both.
func (s *Store) Snapshot(id ID) (val Value, ver Version, locked bool, ok bool) {
	var buf [1]Copy
	c, _ := s.Read(buf[:0], []ID{id}, nil, nil)
	if c[0].Owned {
		val = c[0].Val.Copy()
	}
	return val, c[0].Ver, c[0].LockedBy != 0, c[0].Owned
}

// State is Read of one object without its value and without a clock.
func (s *Store) State(id ID) Copy {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.objs[id]; ok {
		return Copy{Ver: r.ver, LockedBy: r.lockTx, Owned: true}
	}
	return Copy{}
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
// by tx), and at version Expect.
//
// applied reports whether the locks were taken. When applied is false, NO
// lock was taken, so a racing batch never observes a half-locked prefix of
// this one; the per-entry results say which entries failed (stale / busy /
// not-owner) and which would have succeeded (LockOK).
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
	for _, e := range entries {
		s.objs[e.ID].lockTx = tx
		s.emit("lock-ok", e.ID, tx, 0)
	}
	return results, true
}

// Unlock releases the commit lock on id if held by tx.
func (s *Store) Unlock(id ID, tx uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.objs[id]; ok && r.lockTx == tx {
		r.lockTx = 0
		s.emit("unlock", id, tx, 0)
	}
}

// InstallLocked inserts an object already commit-locked by tx: one tx
// creates, or one whose lock brought it here from its old owner (Migrate
// there). It stays locked until tx publishes it (UpdateCommitted), frees it
// unchanged (Unlock) or rolls a creation back (Remove).
func (s *Store) InstallLocked(id ID, val Value, ver Version, tx uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emit("install-locked", id, tx, 0)
	s.objs[id] = &record{val: val, ver: ver, lockTx: tx}
}

// UpdateCommitted installs a new committed value and version for an object
// whose commit lock is held by tx, then releases the lock: the commit
// publishes in place, since its locks brought every write here.
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

// SnapshotAt is Snapshot; the frozen bench/micro.go times it.
func (s *Store) SnapshotAt(id ID, _, _ uint64) (Value, Version, bool, bool) { return s.Snapshot(id) }

// Remove deletes the object if the caller transaction holds its commit lock:
// a rollback (a creation undone). It returns an error if the object is
// absent or locked by someone else.
func (s *Store) Remove(id ID, tx uint64) error { return s.remove("remove", id, tx) }

// Migrate is Remove for a migration: tx's commit lock takes the object to
// the node where tx installs it locked. It differs from Remove only in the
// trace op it narrates ("migrate"), which the trace oracle reads.
func (s *Store) Migrate(id ID, tx uint64) error { return s.remove("migrate", id, tx) }

func (s *Store) remove(op string, id ID, tx uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.objs[id]
	if !ok {
		return fmt.Errorf("store: remove %q: not owned", id)
	}
	if r.lockTx != tx {
		return fmt.Errorf("store: remove %q: lock held by tx %d, not %d", id, r.lockTx, tx)
	}
	delete(s.objs, id)
	s.emit(op, id, tx, 0)
	return nil
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
