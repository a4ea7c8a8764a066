// Package stats implements the RTS transaction stats table.
//
// The paper (§III-B): "To compute a backoff time, we use a transaction stats
// table that stores the average historical validation time of a transaction.
// Each table entry holds a bloom filter representation of the most current
// successful commit times of write transactions. Whenever a transaction
// starts, an expected commit time is picked up from the table."
//
// What a starting transaction picks up is the average, and nothing asks the
// filter whether a commit time was seen, so an entry keeps only the running
// average of the profile's most recent successful commit times, over a
// window restarted every DefaultWindow samples.
package stats

import (
	"sync"
	"time"
)

// DefaultWindow is the number of recent commit samples averaged per entry
// before the average is restarted from its current value.
const DefaultWindow = 64

// Table maps a transaction profile name to its commit-time history. It is
// safe for concurrent use; there is one Table per node.
type Table struct {
	mu       sync.Mutex
	entries  map[string]*entry
	window   int
	fallback time.Duration
}

type entry struct {
	sum   time.Duration
	count int
}

// NewTable returns an empty stats table. fallback is returned by Expect for
// profiles with no recorded history yet (a freshly started system).
func NewTable(fallback time.Duration) *Table {
	if fallback <= 0 {
		fallback = time.Millisecond
	}
	return &Table{
		entries:  make(map[string]*entry),
		window:   DefaultWindow,
		fallback: fallback,
	}
}

// RecordCommit adds an observed successful commit duration for the named
// transaction profile.
func (t *Table) RecordCommit(name string, took time.Duration) {
	if took < 0 {
		took = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[name]
	if e == nil {
		e = &entry{}
		t.entries[name] = e
	}
	if e.count >= t.window {
		// Keep only "the most current" commit times: restart the window,
		// seeding the average with the previous estimate so Expect never
		// jumps discontinuously.
		e.sum /= time.Duration(e.count)
		e.count = 1
	}
	e.sum += took
	e.count++
}

// Expect returns the expected total execution+validation time for the named
// transaction profile — the value a starting transaction advertises as its
// expected commit time (ETS.c). Profiles without history return the
// fallback.
func (t *Table) Expect(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[name]
	if e == nil || e.count == 0 {
		return t.fallback
	}
	return e.sum / time.Duration(e.count)
}

// Profiles returns the number of distinct transaction profiles recorded.
func (t *Table) Profiles() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}
