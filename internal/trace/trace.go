// Package trace is the protocol event layer of the D-STM stack: a
// low-overhead, per-node ring-buffered recorder of every protocol-relevant
// transition (transaction begin/commit/abort, nested begin/merge/rollback,
// object retrieve and TFA forwarding, commit-lock acquire/release, RTS
// enqueue/backoff/hand-off decisions, and message send/receive with
// correlation IDs).
//
// A nil *Recorder is a valid, disabled recorder: every emit degrades to a
// nil check, so production paths carry tracing at negligible cost. Enabled
// recorders append into a fixed ring; when the ring wraps, the oldest
// events are lost and Dropped reports how many (the protocol checker in
// trace/check refuses stateful verdicts over truncated traces).
//
// Per-node logs are merged into one causally consistent order by Merge:
// every event carries the node's TFA clock at emission, and because clocks
// merge on every received message (vclock), sorting by (Clock, Node, Seq)
// respects both per-node emission order and cross-node message causality.
// The merged log is what the trace/check oracle replays.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"dstm/internal/object"
	"dstm/internal/transport"
)

// EventType names a protocol transition. Types are stable strings so JSONL
// traces stay readable and diffable across versions.
type EventType string

// Transaction lifecycle (requester node).
const (
	// EvTxBegin starts one attempt of a root transaction. A = attempt
	// number; B = the attempt's lock identity (fresh per retry), matching
	// the Tx of owner-side lock events so checkers can tie a held lock to
	// its attempt's fate.
	EvTxBegin EventType = "tx-begin"
	// EvTxCommit is a root transaction's successful commit.
	EvTxCommit EventType = "tx-commit"
	// EvTxAbort is one aborted root attempt. Detail = abort cause.
	EvTxAbort EventType = "tx-abort"
	// EvNestBegin starts one attempt of a closed-nested inner transaction.
	EvNestBegin EventType = "nest-begin"
	// EvNestMerge merges a committed inner transaction into its parent.
	EvNestMerge EventType = "nest-merge"
	// EvNestAbort rolls an inner transaction back. Detail = "own" when the
	// inner transaction itself failed, "parent" when an enclosing abort
	// killed it.
	EvNestAbort EventType = "nest-abort"
)

// Object protocol (requester node).
const (
	// EvRetrieve is an Open_Object fetch being issued. Detail = access mode.
	EvRetrieve EventType = "retrieve"
	// EvRetrieveOK records the fetched copy's adoption. A = version clock.
	EvRetrieveOK EventType = "retrieve-ok"
	// EvForward is a TFA forwarding step: the root transaction's start clock
	// advances after revalidation. A = old start, B = new start.
	EvForward EventType = "forward"
	// EvPark parks an enqueued requester awaiting a hand-off push.
	// A = backoff budget in nanoseconds.
	EvPark EventType = "park"
	// EvPushRecv resolves a park: the pushed object was received.
	EvPushRecv EventType = "push-recv"
	// EvParkTimeout resolves a park: the backoff expired first (the
	// transaction must abort with the queue-timeout cause).
	EvParkTimeout EventType = "park-timeout"
	// EvParkCancel resolves a park: the caller's context ended.
	EvParkCancel EventType = "park-cancel"
)

// Commit-lock state machine (owner node, store-serialised).
const (
	// EvLockAcquire grants oid's commit lock to Tx. Detail = "create" when
	// the object is installed pre-locked by its creating transaction.
	EvLockAcquire EventType = "lock-acquire"
	// EvLockRelease releases the commit lock held by Tx. Detail = "unlock"
	// (failed commit), "commit" (in-place publish), or "migrate" (ownership
	// moved to the committer).
	EvLockRelease EventType = "lock-release"
	// EvInstall installs an unlocked authoritative copy (creation seeding or
	// ownership migration in).
	EvInstall EventType = "install"
)

// Scheduler queue (owner node, policy-serialised).
const (
	// EvEnqueue appends a conflicting requester to oid's queue.
	// Detail = access mode, A = queue length after, B = backoff ns granted.
	EvEnqueue EventType = "enqueue"
	// EvDeny aborts a conflicting requester instead of enqueueing it.
	// Detail = access mode, A = contention level observed.
	EvDeny EventType = "deny"
	// EvDequeue removes a queued requester outside a hand-off.
	// Detail = "dup" (stale retry superseded) or "extract" (queue migrating
	// with ownership).
	EvDequeue EventType = "dequeue"
	// EvHandOff pops a queued requester to receive the object. Pops from one
	// release share a group ID in A so the checker can validate the paper's
	// head rule (one write requester, or every read requester). Detail =
	// access mode.
	EvHandOff EventType = "handoff"
	// EvAdopt installs one migrated queue entry at the new owner, ahead of
	// local entries. A = index within the adopted batch.
	EvAdopt EventType = "adopt"
)

// Messaging (cluster layer).
const (
	// EvMsgSend is an outgoing message. Peer = destination, Corr =
	// correlation ID (0 for one-way), A = kind, Detail = "reply" for replies.
	EvMsgSend EventType = "msg-send"
	// EvMsgRecv is an incoming message. Peer = sender; fields as EvMsgSend.
	EvMsgRecv EventType = "msg-recv"
)

// Event is one recorded protocol transition. Node, Seq, Clock and Wall are
// stamped by the Recorder; the remaining fields are type-specific (see the
// EventType docs). The zero values of optional fields are omitted from
// JSONL.
type Event struct {
	Node   transport.NodeID `json:"node"`
	Seq    uint64           `json:"seq"`
	Clock  uint64           `json:"clock"`
	Wall   int64            `json:"wall,omitempty"`
	Type   EventType        `json:"type"`
	Tx     uint64           `json:"tx,omitempty"`
	Oid    object.ID        `json:"oid,omitempty"`
	Detail string           `json:"detail,omitempty"`
	Peer   transport.NodeID `json:"peer,omitempty"`
	Corr   uint64           `json:"corr,omitempty"`
	A      uint64           `json:"a,omitempty"`
	B      uint64           `json:"b,omitempty"`
}

// String renders a compact human-readable form (debugging aid; JSONL is the
// machine format).
func (e Event) String() string {
	return fmt.Sprintf("n%d#%d@%d %s tx=%x oid=%s %s a=%d b=%d",
		e.Node, e.Seq, e.Clock, e.Type, e.Tx, e.Oid, e.Detail, e.A, e.B)
}

// Recorder is one node's ring-buffered event log. A nil Recorder is valid
// and records nothing, so call sites may emit unconditionally through a
// possibly-nil pointer. All methods are safe for concurrent use.
type Recorder struct {
	node  transport.NodeID
	clock func() uint64 // node TFA clock source; may be nil

	mu  sync.Mutex
	buf []Event
	seq uint64 // events ever emitted; buf holds the last min(seq, cap)
}

// DefaultCapacity is the ring size used when NewRecorder is given a
// non-positive capacity.
const DefaultCapacity = 1 << 16

// NewRecorder builds a recorder for one node. clock supplies the node's TFA
// clock at emission time (pass the vclock's Now; nil records clock 0).
func NewRecorder(node transport.NodeID, capacity int, clock func() uint64) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{node: node, clock: clock, buf: make([]Event, 0, capacity)}
}

// Emit records e, stamping Node, Seq, Clock and Wall. Nil-safe.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	e.Node = r.node
	e.Wall = time.Now().UnixNano()
	r.mu.Lock()
	if r.clock != nil {
		e.Clock = r.clock()
	}
	e.Seq = r.seq
	r.seq++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[e.Seq%uint64(cap(r.buf))] = e
	}
	r.mu.Unlock()
}

// Enabled reports whether the recorder actually records (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Len returns the number of events currently held in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns how many events were overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq <= uint64(cap(r.buf)) {
		return 0
	}
	return r.seq - uint64(cap(r.buf))
}

// Events returns the ring's contents oldest-first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.buf))
	if r.seq <= uint64(cap(r.buf)) {
		copy(out, r.buf)
		return out
	}
	// The ring wrapped: the oldest retained event sits at seq % cap.
	head := int(r.seq % uint64(cap(r.buf)))
	n := copy(out, r.buf[head:])
	copy(out[n:], r.buf[:head])
	return out
}

// Merge combines per-node logs into one causally consistent order: sorted
// by (Clock, Node, Seq). Per-node emission order is preserved (a node's
// clock and seq are both non-decreasing), and cross-node message causality
// is respected because receivers merge the sender's clock before acting.
func Merge(logs ...[]Event) []Event {
	var total int
	for _, l := range logs {
		total += len(l)
	}
	out := make([]Event, 0, total)
	for _, l := range logs {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Clock != b.Clock {
			return a.Clock < b.Clock
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return out
}

// WriteJSONL writes events one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace produced by WriteJSONL. Blank lines are
// skipped; a malformed line returns an error naming its line number.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return out, nil
}
