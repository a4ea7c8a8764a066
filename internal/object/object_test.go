package object

import (
	"testing"

	"dstm/internal/transport"
)

// intBox is a minimal Value for tests.
type intBox struct{ N int64 }

func (b *intBox) Copy() Value { c := *b; return &c }

// lock commit-locks one object through the store's one lock entry.
func lock(s *Store, id ID, tx uint64, expect Version) LockResult {
	r, _ := s.LockBatch(tx, []LockEntry{{ID: id, Expect: expect}})
	return r[0]
}

// isLocked reports whether id is owned by s and commit-locked.
func isLocked(s *Store, id ID) bool {
	c := s.State(id)
	return c.Owned && c.LockedBy != 0
}

func TestIDHashStable(t *testing.T) {
	a := ID("bank/acct/1").Hash()
	b := ID("bank/acct/1").Hash()
	if a != b {
		t.Fatal("same ID hashed to different values")
	}
	if ID("bank/acct/1").Hash() == ID("bank/acct/2").Hash() {
		t.Fatal("suspicious collision between adjacent IDs")
	}
}

// TestVersionOrdering: a version equals only itself, clock and node both.
func TestVersionOrdering(t *testing.T) {
	cases := []struct {
		a, b  Version
		equal bool
	}{
		{Version{1, 0}, Version{2, 0}, false},
		{Version{1, 1}, Version{1, 2}, false},
		{Version{2, 1}, Version{1, 2}, false},
		{Version{1, 1}, Version{1, 1}, true},
		{Version{}, Version{}, true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.equal)
		}
	}
}

func TestStoreInstallSnapshot(t *testing.T) {
	s := NewStore()
	s.Install("x", &intBox{7}, Version{1, 0})
	val, ver, locked, ok := s.Snapshot("x")
	if !ok || locked {
		t.Fatalf("Snapshot: ok=%v locked=%v", ok, locked)
	}
	if ver != (Version{1, 0}) {
		t.Fatalf("version %v", ver)
	}
	if val.(*intBox).N != 7 {
		t.Fatalf("value %v", val)
	}
	// The snapshot must be a deep copy.
	val.(*intBox).N = 99
	val2, _, _, _ := s.Snapshot("x")
	if val2.(*intBox).N != 7 {
		t.Fatal("Snapshot aliases the authoritative copy")
	}
}

func TestSnapshotMissing(t *testing.T) {
	s := NewStore()
	if _, _, _, ok := s.Snapshot("nope"); ok {
		t.Fatal("Snapshot of missing object returned ok")
	}
	if s.State("nope").Owned {
		t.Fatal("State of missing object returned ok")
	}
}

// TestReadIsOneCut: Read takes every object and reads the clock in one
// critical section — now runs with the store's mutex held — and reports each
// one's value, version, lock holder and ownership. The value is the store's
// own: whoever sends it copies it (the stm package's owner-side tests pin
// that a receiver cannot change the owner's record).
func TestReadIsOneCut(t *testing.T) {
	s := NewStore()
	s.Install("x", &intBox{7}, Version{1, 0})
	s.Install("y", &intBox{8}, Version{2, 1})
	if r := lock(s, "y", 5, Version{2, 1}); r != LockOK {
		t.Fatalf("lock y: %v", r)
	}
	locked := func() bool {
		if s.mu.TryLock() {
			s.mu.Unlock()
			return false
		}
		return true
	}
	var held, decided bool
	var seen []Copy
	copies, clock := s.Read(nil, []ID{"x", "y", "nope"}, func() uint64 {
		held = locked()
		return 42
	}, func(i int, c Copy) {
		decided = locked()
		if i == len(seen) {
			seen = append(seen, c)
		}
	})
	if !held || clock != 42 {
		t.Fatalf("clock %d read with the mutex held = %v, want 42 and true", clock, held)
	}
	if !decided || len(seen) != 3 || seen[1] != copies[1] || seen[2] != copies[2] {
		t.Fatalf("decided with the mutex held = %v on %+v, want true on the 3 copies returned", decided, seen)
	}
	x, y, nope := copies[0], copies[1], copies[2]
	if !x.Owned || x.LockedBy != 0 || x.Ver != (Version{1, 0}) || x.Val.(*intBox).N != 7 {
		t.Fatalf("x = %+v", x)
	}
	if !y.Owned || y.LockedBy != 5 || y.Ver != (Version{2, 1}) || y.Val.(*intBox).N != 8 {
		t.Fatalf("y = %+v", y)
	}
	if nope != (Copy{}) {
		t.Fatalf("missing object = %+v, want the zero Copy", nope)
	}
}

func TestLockSemantics(t *testing.T) {
	s := NewStore()
	s.Install("x", &intBox{1}, Version{5, 2})

	if got := lock(s, "y", 10, Version{}); got != LockNotOwner {
		t.Fatalf("lock unowned: %v", got)
	}
	if got := lock(s, "x", 10, Version{4, 2}); got != LockStale {
		t.Fatalf("stale lock: %v", got)
	}
	if got := lock(s, "x", 10, Version{5, 2}); got != LockOK {
		t.Fatalf("lock: %v", got)
	}
	if !isLocked(s, "x") {
		t.Fatal("Locked false after Lock")
	}
	// Re-entrant for the same tx.
	if got := lock(s, "x", 10, Version{5, 2}); got != LockOK {
		t.Fatalf("re-entrant lock: %v", got)
	}
	// Busy for another tx, even with correct version.
	if got := lock(s, "x", 11, Version{5, 2}); got != LockBusy {
		t.Fatalf("busy lock: %v", got)
	}
	// Unlock by non-holder is a no-op.
	s.Unlock("x", 11)
	if !isLocked(s, "x") {
		t.Fatal("non-holder unlock released the lock")
	}
	s.Unlock("x", 10)
	if isLocked(s, "x") {
		t.Fatal("still locked after holder unlock")
	}
	// Unlock when unlocked is a no-op.
	s.Unlock("x", 10)
}

func TestRemoveRequiresLock(t *testing.T) {
	s := NewStore()
	s.Install("x", &intBox{1}, Version{1, 0})
	if err := s.Remove("x", 10); err == nil {
		t.Fatal("Remove without lock succeeded")
	}
	if lock(s, "x", 10, Version{1, 0}) != LockOK {
		t.Fatal("lock failed")
	}
	if err := s.Remove("x", 11); err == nil {
		t.Fatal("Remove by non-holder succeeded")
	}
	if err := s.Remove("x", 10); err != nil {
		t.Fatalf("Remove by holder: %v", err)
	}
	if s.Owns("x") {
		t.Fatal("object still owned after Remove")
	}
	if err := s.Remove("x", 10); err == nil {
		t.Fatal("double Remove succeeded")
	}
}

// TestDepartureRecord: only a migration leaves a departure record, and any
// install, or a lock request that may bring the object back (Arriving),
// clears it.
func TestDepartureRecord(t *testing.T) {
	moved := func(s *Store, id ID) (transport.NodeID, bool) {
		c := s.State(id)
		return c.MovedTo, c.Moved && !c.Owned
	}
	installs := map[string]func(s *Store){
		"Install":       func(s *Store) { s.Install("x", &intBox{1}, Version{}) },
		"InstallNew":    func(s *Store) { s.InstallNew("x", &intBox{1}) },
		"InstallLocked": func(s *Store) { s.InstallLocked("x", &intBox{1}, Version{}, 9) },
		"Arriving":      func(s *Store) { s.Arriving([]ID{"x"}) },
	}
	for name, clear := range installs {
		t.Run(name, func(t *testing.T) {
			s := NewStore()
			s.Install("x", &intBox{1}, Version{})
			if err := s.Migrate("x", 0, 3); err != nil {
				t.Fatal(err)
			}
			if to, ok := moved(s, "x"); !ok || to != 3 {
				t.Fatalf("after Migrate: moved to %d = %v, want node 3", to, ok)
			}
			var buf [1]Copy
			if c, _ := s.Read(buf[:0], []ID{"x"}, nil, nil); !c[0].Moved || c[0].MovedTo != 3 {
				t.Fatalf("Read after Migrate = %+v, want moved to node 3", c[0])
			}
			clear(s)
			if _, ok := moved(s, "x"); ok {
				t.Fatalf("a departure record outlived %s", name)
			}
		})
	}
	t.Run("Remove", func(t *testing.T) {
		s := NewStore()
		s.InstallLocked("x", &intBox{1}, Version{}, 9)
		if err := s.Remove("x", 9); err != nil {
			t.Fatal(err)
		}
		if c := s.State("x"); c != (Copy{}) {
			t.Fatalf("after a rollback Remove: %+v, want the zero Copy", c)
		}
	})
	t.Run("Migrate refused", func(t *testing.T) {
		s := NewStore()
		if err := s.Migrate("x", 0, 3); err == nil {
			t.Fatal("Migrate of an object not here succeeded")
		}
		if _, ok := moved(s, "x"); ok {
			t.Fatal("a refused Migrate left a departure record")
		}
	})
}

func TestStoreLenIDs(t *testing.T) {
	s := NewStore()
	s.Install("a", &intBox{1}, Version{})
	s.Install("b", &intBox{2}, Version{})
	ids := s.IDs()
	seen := map[ID]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	if !seen["a"] || !seen["b"] || len(ids) != 2 {
		t.Fatalf("IDs = %v", ids)
	}
}

func TestLockResultString(t *testing.T) {
	for lr, want := range map[LockResult]string{
		LockOK: "ok", LockStale: "stale", LockBusy: "busy", LockNotOwner: "not-owner",
	} {
		if lr.String() != want {
			t.Errorf("%d.String() = %q, want %q", lr, lr.String(), want)
		}
	}
	if LockResult(99).String() == "" {
		t.Error("unknown LockResult produced empty string")
	}
}

func TestStoreConcurrentLocking(t *testing.T) {
	s := NewStore()
	s.Install("x", &intBox{0}, Version{})
	const goroutines = 8
	acquired := make(chan uint64, goroutines)
	done := make(chan struct{})
	for g := 1; g <= goroutines; g++ {
		go func(tx uint64) {
			if lock(s, "x", tx, Version{}) == LockOK {
				acquired <- tx
			}
			done <- struct{}{}
		}(uint64(g))
	}
	for g := 0; g < goroutines; g++ {
		<-done
	}
	close(acquired)
	n := 0
	for range acquired {
		n++
	}
	if n != 1 {
		t.Fatalf("%d goroutines acquired the commit lock, want exactly 1", n)
	}
}
