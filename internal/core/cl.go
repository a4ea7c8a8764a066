package core

import (
	"sync"
	"time"

	"dstm/internal/object"
)

// clTracker measures the local contention level (CL) of each object owned
// by this node: how many *distinct transactions* have requested the object
// during the current time window (paper §III-A, "a simple local detection
// scheme determines the local CL of oj by how many transactions have
// requested oj during a given time period"). Retries of the same
// transaction count once.
type clTracker struct {
	window time.Duration
	now    func() time.Time // injectable clock for tests

	mu      sync.Mutex
	entries map[object.ID]*clEntry
}

type clEntry struct {
	txs        map[uint64]struct{}
	windowFrom time.Time
}

// newCLTracker returns a tracker with the given window (0 means 100 ms —
// a few typical transaction lifetimes).
func newCLTracker(window time.Duration) *clTracker {
	if window <= 0 {
		window = 100 * time.Millisecond
	}
	return &clTracker{
		window:  window,
		now:     time.Now,
		entries: make(map[object.ID]*clEntry),
	}
}

// Record counts one request by txid against oid and returns the local CL
// including this requester. Repeat requests from the same transaction
// within a window do not inflate the level.
func (t *clTracker) Record(oid object.ID, txid uint64) int {
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[oid]
	if e == nil {
		e = &clEntry{txs: make(map[uint64]struct{})}
		t.entries[oid] = e
	}
	if now.Sub(e.windowFrom) > t.window {
		clear(e.txs)
		e.windowFrom = now
	}
	e.txs[txid] = struct{}{}
	return len(e.txs)
}
