// Package check is the trace-driven protocol oracle: it replays a merged,
// clock-ordered event trace (package trace) and asserts the per-event
// invariants of the TFA + RTS protocol that end-state invariant checks
// cannot see:
//
//   - I1 commit-lock mutual exclusion: at any owner, an object's commit
//     lock is granted to at most one transaction at a time, and is only
//     released for its current holder;
//   - I2 forwarding monotonicity: TFA forwarding never moves a
//     transaction's start clock backwards, within one forwarding step or
//     across steps;
//   - I3 hand-off head rule: every RTS hand-off group is either the single
//     write requester at the queue head, or exactly the set of queued read
//     requesters when a read heads the queue (paper Algorithm 4);
//   - I4 park closure: an enqueued requester that parks either receives a
//     push, is cancelled by its caller, or times out — and a timeout must
//     be followed by that transaction aborting with the queue-timeout
//     cause;
//   - I6 reply correlation: every reply received was solicited — its
//     (peer, correlation) pair matches an earlier outgoing request;
//   - I7 batch atomicity: at trace end, no commit lock is still held by an
//     attempt that aborted — an owner's lock batch (a locking retrieve) is
//     applied all-or-nothing, so a failed commit must leave NO subset of its
//     batch locked once its releases have drained (checked at end-of-trace
//     because an abort and its owner-side release can carry tied clocks).
//
// I5 (lease-expiry safety) is retired with the lock lease: only a lock's
// holder frees it, which I1 checks. I8 (MVCC snapshot consistency) is
// retired with the read path it checked. Neither number is reused — I9
// and I10 keep their planned names.
//
// I1, I3, I4, I6 and I7 are stateful: they reconstruct queues, locks
// and parked waiters from the trace, so they are only sound over a complete
// trace. When any recorder dropped events (ring wrap), run with
// Options.Truncated — the stateful invariants are skipped and only I2 is
// checked.
package check

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"dstm/internal/object"
	"dstm/internal/trace"
	"dstm/internal/transport"
)

// Violation is one invariant breach, anchored to the event that exposed it.
type Violation struct {
	Invariant string // "lock-exclusion", "forward-monotonic", ...
	Msg       string
	Event     trace.Event
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s [%s]", v.Invariant, v.Msg, v.Event)
}

// Options tunes a checker run.
type Options struct {
	// Truncated marks the trace as incomplete (some recorder dropped
	// events). Stateful invariants are skipped; only per-event checks run.
	Truncated bool
	// MaxViolations caps the report (0 = 64). The checker keeps replaying
	// past violations up to the cap so one bug does not mask another.
	MaxViolations int
}

// Report is the outcome of one checker run.
type Report struct {
	Events     int
	Violations []Violation
	Skipped    []string // stateful invariants skipped due to truncation
}

// Err folds the report into an error: nil when the trace passed.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace check: %d violation(s):", len(r.Violations))
	for i, v := range r.Violations {
		if i == 8 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(r.Violations)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return errors.New(b.String())
}

// lockKey scopes lock state to one owner's store: the store serialises its
// own transitions, and ownership migration re-installs the object at the
// new owner, so mutual exclusion is per (node, object).
type lockKey struct {
	node transport.NodeID
	oid  object.ID
}

type queueEntry struct {
	tx      uint64
	mode    string
	adopted bool // inserted by queue migration, ahead of local entries
}

type parkKey struct {
	tx  uint64
	oid object.ID
}

type corrKey struct {
	node transport.NodeID
	peer transport.NodeID
	corr uint64
}

// checker is the replay state.
type checker struct {
	opts Options
	rep  Report

	locks    map[lockKey]uint64       // current commit-lock holder (0 = free)
	queues   map[lockKey][]queueEntry // scheduler requester queues
	adopting map[lockKey]int          // adopted entries in the current batch

	// Hand-off groups are validated once complete: pops sharing (key, group
	// id) form one release's hand-off set.
	group    map[lockKey]uint64        // current group id per queue
	groupEvs map[lockKey][]trace.Event // buffered pops of the current group
	groupPre map[lockKey][]queueEntry  // queue as it stood when the group began

	parked   map[parkKey]trace.Event // open parks awaiting resolution
	timedOut map[uint64]trace.Event  // tx → park-timeout awaiting its abort

	sent map[corrKey]bool // outgoing request correlations

	forwarded map[uint64]uint64 // tx → highest forwarded start clock

	// Batch atomicity: lock events are keyed by the attempt's lock identity
	// (fresh per retry), which EvTxBegin carries in B; an abort dooms the
	// current attempt's identity.
	curLock     map[uint64]uint64       // root tx → current attempt's lock identity
	abortedLock map[uint64]bool         // lock identities whose attempt aborted
	lastAcquire map[lockKey]trace.Event // latest grant per lock, for reporting
}

// Run replays a merged trace (see trace.Merge) and reports violations.
func Run(events []trace.Event, opts Options) *Report {
	if opts.MaxViolations <= 0 {
		opts.MaxViolations = 64
	}
	c := &checker{
		opts:        opts,
		locks:       make(map[lockKey]uint64),
		queues:      make(map[lockKey][]queueEntry),
		adopting:    make(map[lockKey]int),
		group:       make(map[lockKey]uint64),
		groupEvs:    make(map[lockKey][]trace.Event),
		groupPre:    make(map[lockKey][]queueEntry),
		parked:      make(map[parkKey]trace.Event),
		timedOut:    make(map[uint64]trace.Event),
		sent:        make(map[corrKey]bool),
		forwarded:   make(map[uint64]uint64),
		curLock:     make(map[uint64]uint64),
		abortedLock: make(map[uint64]bool),
		lastAcquire: make(map[lockKey]trace.Event),
	}
	c.rep.Events = len(events)
	if opts.Truncated {
		c.rep.Skipped = []string{"lock-exclusion", "handoff-head", "park-closure", "reply-correlation", "batch-atomicity"}
	}
	for _, e := range events {
		c.step(e)
	}
	c.finish()
	return &c.rep
}

func (c *checker) violate(inv string, e trace.Event, format string, args ...any) {
	if len(c.rep.Violations) >= c.opts.MaxViolations {
		return
	}
	c.rep.Violations = append(c.rep.Violations, Violation{
		Invariant: inv,
		Msg:       fmt.Sprintf(format, args...),
		Event:     e,
	})
}

func (c *checker) step(e trace.Event) {
	// Queue events for one (node, object) are serialised by the scheduler's
	// mutex, so they are totally ordered in the log — but unrelated events
	// from other goroutines on the same node may interleave between them.
	// A hand-off group (or adopt batch) therefore ends at the next QUEUE
	// event touching the same queue, never at an interleaved non-queue one.
	switch e.Type {
	case trace.EvEnqueue, trace.EvDequeue, trace.EvAdopt:
		c.flushGroup(lockKey{node: e.Node, oid: e.Oid})
	}
	switch e.Type {
	case trace.EvEnqueue, trace.EvDequeue, trace.EvHandOff:
		delete(c.adopting, lockKey{node: e.Node, oid: e.Oid})
	}

	switch e.Type {
	case trace.EvForward:
		c.checkForward(e)
	}
	if c.opts.Truncated {
		return
	}
	switch e.Type {
	case trace.EvLockAcquire:
		c.lockAcquire(e)
	case trace.EvLockRelease:
		c.lockRelease(e)
	case trace.EvInstall:
		// Unlocked (re-)install: creation seeding or migration in.
		c.locks[lockKey{node: e.Node, oid: e.Oid}] = 0

	case trace.EvEnqueue:
		c.enqueue(e)
	case trace.EvDequeue:
		c.dequeue(e)
	case trace.EvAdopt:
		c.adopt(e)
	case trace.EvHandOff:
		c.handOff(e)

	case trace.EvPark:
		c.park(e)
	case trace.EvPushRecv:
		c.resolvePark(e, "push")
	case trace.EvParkCancel:
		c.resolvePark(e, "cancel")
	case trace.EvParkTimeout:
		c.resolvePark(e, "timeout")
		c.timedOut[e.Tx] = e
	case trace.EvTxBegin:
		if e.B != 0 {
			if prev := c.curLock[e.Tx]; prev != 0 && prev != e.B {
				// A fresh attempt means the previous one ended without
				// committing (a commit would have ended the retry loop).
				c.abortedLock[prev] = true
			}
			c.curLock[e.Tx] = e.B
		}
	case trace.EvTxAbort:
		if to, ok := c.timedOut[e.Tx]; ok {
			if e.Detail != "queue-timeout" {
				c.violate("park-closure", e,
					"tx %x timed out parked (seq %d) but aborted with cause %q, want queue-timeout",
					e.Tx, to.Seq, e.Detail)
			}
			delete(c.timedOut, e.Tx)
		}
		if l := c.curLock[e.Tx]; l != 0 {
			c.abortedLock[l] = true
			delete(c.curLock, e.Tx)
		}
	case trace.EvTxCommit:
		if to, ok := c.timedOut[e.Tx]; ok {
			c.violate("park-closure", e,
				"tx %x committed despite a park timeout at seq %d", e.Tx, to.Seq)
			delete(c.timedOut, e.Tx)
		}
		delete(c.curLock, e.Tx)

	case trace.EvMsgSend:
		if e.Corr != 0 && e.Detail != "reply" {
			c.sent[corrKey{node: e.Node, peer: e.Peer, corr: e.Corr}] = true
		}
	case trace.EvMsgRecv:
		if e.Corr != 0 && e.Detail == "reply" {
			if !c.sent[corrKey{node: e.Node, peer: e.Peer, corr: e.Corr}] {
				c.violate("reply-correlation", e,
					"node %d received a reply from %d with unsolicited correlation %d",
					e.Node, e.Peer, e.Corr)
			}
		}
	}
}

// finish flushes trailing state. Open parks at trace end are legal (the run
// window closed with requesters still waiting), as are pending timeouts
// whose abort event had not been emitted yet. Locks still held by an
// ABORTED attempt are not legal: the abort's release RPCs completed before
// the abort event was emitted, so once the trace ends no fragment of the
// aborted attempt's (all-or-nothing) batches may remain locked (I7).
func (c *checker) finish() {
	for k := range c.groupEvs {
		c.flushGroup(k)
	}
	if c.opts.Truncated {
		return
	}
	var leaked []lockKey
	for k, holder := range c.locks {
		if holder != 0 && c.abortedLock[holder] {
			leaked = append(leaked, k)
		}
	}
	sort.Slice(leaked, func(i, j int) bool {
		if leaked[i].node != leaked[j].node {
			return leaked[i].node < leaked[j].node
		}
		return leaked[i].oid < leaked[j].oid
	})
	for _, k := range leaked {
		c.violate("batch-atomicity", c.lastAcquire[k],
			"%s at node %d still commit-locked by aborted attempt %x at trace end",
			k.oid, k.node, c.locks[k])
	}
}

// ---------------------------------------------------------------------------
// I2 — forwarding monotonicity.

func (c *checker) checkForward(e trace.Event) {
	old, new_ := e.A, e.B
	if new_ < old {
		c.violate("forward-monotonic", e,
			"tx %x forwarded backwards: start %d -> %d", e.Tx, old, new_)
	}
	if prev, ok := c.forwarded[e.Tx]; ok && new_ < prev {
		c.violate("forward-monotonic", e,
			"tx %x forwarded to %d below an earlier forward to %d", e.Tx, new_, prev)
	}
	if new_ > c.forwarded[e.Tx] {
		c.forwarded[e.Tx] = new_
	}
}

// ---------------------------------------------------------------------------
// I1 — commit-lock state machine.

func (c *checker) lockAcquire(e trace.Event) {
	k := lockKey{node: e.Node, oid: e.Oid}
	if cur := c.locks[k]; cur != 0 && cur != e.Tx {
		c.violate("lock-exclusion", e,
			"%s at node %d granted to tx %x while held by tx %x", e.Oid, e.Node, e.Tx, cur)
	}
	c.locks[k] = e.Tx
	c.lastAcquire[k] = e
}

func (c *checker) lockRelease(e trace.Event) {
	k := lockKey{node: e.Node, oid: e.Oid}
	if cur := c.locks[k]; cur != e.Tx {
		c.violate("lock-exclusion", e,
			"%s at node %d released by tx %x but held by tx %x", e.Oid, e.Node, e.Tx, cur)
	}
	c.locks[k] = 0
}

// ---------------------------------------------------------------------------
// I3 — scheduler queue model and the hand-off head rule.

func (c *checker) enqueue(e trace.Event) {
	k := lockKey{node: e.Node, oid: e.Oid}
	c.queues[k] = append(c.queues[k], queueEntry{tx: e.Tx, mode: e.Detail})
}

func (c *checker) dequeue(e trace.Event) {
	k := lockKey{node: e.Node, oid: e.Oid}
	q := c.queues[k]
	for i, ent := range q {
		if ent.tx == e.Tx {
			c.queues[k] = append(q[:i:i], q[i+1:]...)
			return
		}
	}
	// A dup-removal probe for a transaction that was never queued is normal
	// (OnConflict always probes); an extract of an unknown entry is not.
	if e.Detail == "extract" {
		c.violate("handoff-head", e,
			"queue migration extracted tx %x not present in %s's queue at node %d", e.Tx, e.Oid, e.Node)
	}
}

func (c *checker) adopt(e trace.Event) {
	k := lockKey{node: e.Node, oid: e.Oid}
	// Adopted entries are inserted ahead of local ones, in batch order:
	// batch index i lands at position i.
	idx := c.adopting[k]
	q := c.queues[k]
	if idx > len(q) {
		idx = len(q)
	}
	ent := queueEntry{tx: e.Tx, mode: e.Detail, adopted: true}
	q = append(q, queueEntry{})
	copy(q[idx+1:], q[idx:])
	q[idx] = ent
	c.queues[k] = q
	c.adopting[k] = idx + 1
}

func (c *checker) handOff(e trace.Event) {
	k := lockKey{node: e.Node, oid: e.Oid}
	if evs := c.groupEvs[k]; len(evs) > 0 && evs[0].A != e.A {
		// A new release's group begins: settle the previous one first.
		c.flushGroup(k)
	}
	if len(c.groupEvs[k]) == 0 {
		// Snapshot the queue as the release saw it.
		c.groupPre[k] = append([]queueEntry(nil), c.queues[k]...)
		c.group[k] = e.A
	}
	c.groupEvs[k] = append(c.groupEvs[k], e)
	// Remove from the live queue immediately so subsequent events see the
	// post-pop state.
	q := c.queues[k]
	for i, ent := range q {
		if ent.tx == e.Tx {
			c.queues[k] = append(q[:i:i], q[i+1:]...)
			break
		}
	}
}

// flushGroup validates one completed hand-off group against the paper's
// Algorithm 4: the head write requester alone, or every queued read
// requester when a read heads the queue.
func (c *checker) flushGroup(k lockKey) {
	evs := c.groupEvs[k]
	if len(evs) == 0 {
		return
	}
	pre := c.groupPre[k]
	delete(c.groupEvs, k)
	delete(c.groupPre, k)
	delete(c.group, k)

	if len(pre) == 0 {
		c.violate("handoff-head", evs[0],
			"hand-off of tx %x from an empty queue for %s at node %d", evs[0].Tx, k.oid, k.node)
		return
	}
	head := pre[0]
	if head.mode == "write" {
		if len(evs) != 1 || evs[0].Tx != head.tx {
			c.violate("handoff-head", evs[0],
				"queue head is write tx %x but hand-off group was %s", head.tx, groupTxs(evs))
		}
		return
	}
	// Read head: the group must be exactly the queued reads, in order.
	var wantReads []uint64
	for _, ent := range pre {
		if ent.mode == "read" {
			wantReads = append(wantReads, ent.tx)
		}
	}
	if len(evs) != len(wantReads) {
		c.violate("handoff-head", evs[0],
			"read-headed queue should hand off all %d reads, got group %s", len(wantReads), groupTxs(evs))
		return
	}
	for i, ev := range evs {
		if ev.Tx != wantReads[i] {
			c.violate("handoff-head", ev,
				"read broadcast popped tx %x at position %d, want tx %x", ev.Tx, i, wantReads[i])
			return
		}
	}
}

func groupTxs(evs []trace.Event) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, e := range evs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%x", e.Tx)
	}
	b.WriteByte(']')
	return b.String()
}

// ---------------------------------------------------------------------------
// I4 — park closure.

func (c *checker) park(e trace.Event) {
	k := parkKey{tx: e.Tx, oid: e.Oid}
	if prev, open := c.parked[k]; open {
		c.violate("park-closure", e,
			"tx %x parked twice on %s without resolving the park at seq %d", e.Tx, e.Oid, prev.Seq)
	}
	c.parked[k] = e
}

func (c *checker) resolvePark(e trace.Event, how string) {
	k := parkKey{tx: e.Tx, oid: e.Oid}
	if _, open := c.parked[k]; !open {
		c.violate("park-closure", e,
			"%s for tx %x on %s without a preceding park", how, e.Tx, e.Oid)
		return
	}
	delete(c.parked, k)
}
