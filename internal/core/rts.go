// Package core implements the paper's contribution: RTS, the Reactive
// Transactional Scheduler for closed-nested transactions in dataflow D-STM
// (Kim & Ravindran, IPDPS 2012).
//
// RTS hooks the owner-side conflict path of the D-STM runtime. When a
// retrieve request arrives for an object that is commit-locked (its holder
// is validating), RTS decides the requester's fate from two signals:
//
//   - the requester's elapsed execution time (ETS.r − ETS.s): parents that
//     have been running long enough to out-weigh the queueing delay are
//     candidates for enqueueing — aborting them would also roll back their
//     committed closed-nested children and force every object to be
//     re-fetched over the network;
//   - the contention level (CL): the number of transactions wanting the
//     objects involved — local CL of the requested object plus the
//     requester's remote CL. High contention means queueing would likely
//     spiral, so the requester aborts instead.
//
// Enqueued requesters receive a backoff time accumulated from the expected
// remaining execution times of the transactions queued ahead of them
// (Algorithm 3's bk). When the commit lock is released, the owner hands the
// freshly committed object straight to the first queued write requester —
// or to every queued read requester at once — so their inner transactions
// resume without re-requesting objects (Algorithm 4). Queues migrate with
// object ownership at commit time.
package core

import (
	"sync"
	"time"

	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/trace"
	"dstm/internal/transport"
)

// Options configures an RTS instance.
type Options struct {
	// CLThreshold is the contention level at or above which a conflicting
	// parent transaction is aborted rather than enqueued. 0 means
	// DefaultCLThreshold. Ignored when Adaptive is set.
	CLThreshold int

	// Adaptive enables runtime hill-climbing of the CL threshold between
	// adaptMin and adaptMax (paper §IV-A: the threshold "is adaptively
	// determined").
	Adaptive   bool
	AdaptBatch int

	// CLWindow is the sliding window over which per-object local CLs are
	// counted. 0 means 100 ms.
	CLWindow time.Duration

	// MaxQueue caps each object's requester queue. 0 derives it from the
	// CL threshold (paper §III-C: "the transactions will be enqueued as
	// many as CL threshold").
	MaxQueue int
}

// DefaultCLThreshold matches the order of magnitude the paper's example
// uses (§III-B illustrates a threshold of 3).
const DefaultCLThreshold = 3

// adaptMin and adaptMax bound the adaptive CL threshold.
const adaptMin, adaptMax = 2, 16

// RTS is the reactive transactional scheduler. It implements sched.Policy.
type RTS struct {
	opts    Options
	tracker *clTracker
	adapt   *adaptiveThreshold

	mu    sync.Mutex
	lists map[object.ID]*requesterList

	// tracer records queue transitions; handoffSeq groups the pops of one
	// release so the checker can validate the hand-off head rule. Both are
	// guarded by mu: queue events MUST be emitted under the same critical
	// section that mutates the queue, or the trace would interleave them.
	tracer     *trace.Recorder
	handoffSeq uint64
}

var (
	_ sched.Policy       = (*RTS)(nil)
	_ sched.QueueDepther = (*RTS)(nil)
)

// New returns an RTS policy with the given options.
func New(opts Options) *RTS {
	if opts.CLThreshold <= 0 {
		opts.CLThreshold = DefaultCLThreshold
	}
	r := &RTS{
		opts:    opts,
		tracker: newCLTracker(opts.CLWindow),
		lists:   make(map[object.ID]*requesterList),
	}
	if opts.Adaptive {
		r.adapt = newAdaptiveThreshold(opts.CLThreshold, adaptMin, adaptMax, opts.AdaptBatch)
	}
	return r
}

// Name implements sched.Policy.
func (r *RTS) Name() string { return "RTS" }

// SetTracer installs a protocol event recorder for queue transitions (nil
// disables). Call before the scheduler starts taking requests.
func (r *RTS) SetTracer(tr *trace.Recorder) {
	r.mu.Lock()
	r.tracer = tr
	r.mu.Unlock()
}

// Threshold returns the CL threshold currently in force.
func (r *RTS) Threshold() int {
	if r.adapt != nil {
		return r.adapt.Value()
	}
	return r.opts.CLThreshold
}

// Feedback reports a transaction outcome to the adaptive controller. It is
// a no-op for fixed thresholds.
func (r *RTS) Feedback(committed bool) {
	if r.adapt != nil {
		r.adapt.Feedback(committed)
	}
}

// ObserveRequest implements sched.Policy: every retrieve request marks the
// requesting transaction against the object's local CL window, and the
// resulting level (distinct requesters) is reported back to the requester
// (which accumulates it into its myCL).
func (r *RTS) ObserveRequest(oid object.ID, txid uint64) int {
	return r.tracker.Record(oid, txid)
}

// OnConflict implements sched.Policy — Algorithm 3 of the paper.
func (r *RTS) OnConflict(req sched.Request) sched.Decision {
	r.mu.Lock()
	defer r.mu.Unlock()

	lst := r.lists[req.Oid]
	if lst == nil {
		lst = &requesterList{}
		r.lists[req.Oid] = lst
	}
	// A requester that timed out and retried must not occupy two slots.
	if lst.removeDuplicate(req.Node, req.TxID) {
		r.tracer.Emit(trace.Event{Type: trace.EvDequeue, Tx: req.TxID, Oid: req.Oid, Detail: "dup"})
	}

	maxQueue := r.opts.MaxQueue
	threshold := r.Threshold()
	if maxQueue <= 0 {
		maxQueue = threshold
	}

	// contention = local CL of the object (queued requesters plus this
	// one) + the requester's remote CL (objects it already holds).
	contention := lst.len() + 1 + req.MyCL

	// Enqueue only a transaction whose elapsed execution time exceeds the
	// backoff it would have to sit out (otherwise aborting and restarting
	// is cheaper than queueing, §III-A).
	if lst.bk() < req.Elapsed && lst.len() < maxQueue && contention < threshold {
		lst.add(req, contention)
		bk := lst.bk()
		r.tracer.Emit(trace.Event{
			Type: trace.EvEnqueue, Tx: req.TxID, Oid: req.Oid,
			Detail: req.Mode.String(), A: uint64(lst.len()), B: uint64(bk),
		})
		return sched.Decision{Enqueue: true, Backoff: bk}
	}
	r.tracer.Emit(trace.Event{
		Type: trace.EvDeny, Tx: req.TxID, Oid: req.Oid,
		Detail: req.Mode.String(), A: uint64(contention),
	})
	return sched.Decision{}
}

// OnRelease implements sched.Policy — the hand-off of Algorithm 4: on
// commit-lock release the object goes to the first queued write requester,
// or simultaneously to all queued read requesters when a read heads the
// queue, maximising read concurrency.
func (r *RTS) OnRelease(oid object.ID) []sched.Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.popLocked(oid)
}

// OnDecline implements sched.Policy: the previously popped requester was
// gone (aborted while parked); try the next.
func (r *RTS) OnDecline(oid object.ID) []sched.Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.popLocked(oid)
}

func (r *RTS) popLocked(oid object.ID) []sched.Request {
	lst := r.lists[oid]
	if lst == nil || lst.len() == 0 {
		return nil
	}
	out := lst.pop()
	if lst.len() == 0 {
		delete(r.lists, oid)
	}
	if len(out) > 0 && r.tracer.Enabled() {
		// Pops of one release share a group ID so the checker can validate
		// the head rule over the whole hand-off set.
		r.handoffSeq++
		for _, q := range out {
			r.tracer.Emit(trace.Event{
				Type: trace.EvHandOff, Tx: q.TxID, Oid: oid,
				Detail: q.Mode.String(), A: r.handoffSeq,
			})
		}
	}
	return out
}

// ExtractQueue implements sched.Policy: ownership is migrating; the queue
// travels with the commit reply to the new owner.
func (r *RTS) ExtractQueue(oid object.ID) []sched.Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	lst := r.lists[oid]
	if lst == nil {
		return nil
	}
	delete(r.lists, oid)
	out := make([]sched.Request, len(lst.entries))
	for i, e := range lst.entries {
		out[i] = e.req
		r.tracer.Emit(trace.Event{Type: trace.EvDequeue, Tx: e.req.TxID, Oid: oid, Detail: "extract"})
	}
	return out
}

// AdoptQueue implements sched.Policy: install a queue received with
// ownership. Existing entries (new requesters that raced ahead) stay,
// behind the adopted ones.
func (r *RTS) AdoptQueue(oid object.ID, reqs []sched.Request) {
	if len(reqs) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	lst := r.lists[oid]
	if lst == nil {
		lst = &requesterList{}
		r.lists[oid] = lst
	}
	adopted := make([]listEntry, 0, len(reqs)+len(lst.entries))
	for i, q := range reqs {
		adopted = append(adopted, listEntry{req: q})
		r.tracer.Emit(trace.Event{
			Type: trace.EvAdopt, Tx: q.TxID, Oid: oid,
			Detail: q.Mode.String(), A: uint64(i),
		})
	}
	lst.entries = append(adopted, lst.entries...)
}

// RetryDelay implements sched.Policy: none, since RTS relies on enqueueing
// rather than client stalls.
func (r *RTS) RetryDelay(int, string) time.Duration { return 0 }

// QueueDepth implements sched.QueueDepther: the total number of parked
// requesters across every object's list.
func (r *RTS) QueueDepth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, lst := range r.lists {
		total += lst.len()
	}
	return total
}

// QueueLen reports the current queue length for oid (for tests/metrics).
func (r *RTS) QueueLen(oid object.ID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if lst := r.lists[oid]; lst != nil {
		return lst.len()
	}
	return 0
}

// requesterList is the paper's Requester_List: the queue of enqueued
// requesters for one object plus their recorded contention levels. bk —
// the accumulated backoff (Algorithm 3's static bks) — is derived from the
// expected remaining execution times of the queued entries so that dedup
// and pops keep it consistent.
type requesterList struct {
	entries []listEntry
}

type listEntry struct {
	req        sched.Request
	contention int
}

func (l *requesterList) len() int { return len(l.entries) }

func (l *requesterList) bk() time.Duration {
	var sum time.Duration
	for _, e := range l.entries {
		sum += e.req.ExpectedRemaining
	}
	return sum
}

func (l *requesterList) add(req sched.Request, contention int) {
	l.entries = append(l.entries, listEntry{req: req, contention: contention})
}

// removeDuplicate drops a stale entry from the same node and transaction
// (paper: "the duplicated transaction will be removed from a queue"). It
// reports whether an entry was actually removed.
func (l *requesterList) removeDuplicate(node transport.NodeID, txid uint64) bool {
	for i, e := range l.entries {
		if e.req.Node == node && e.req.TxID == txid {
			l.entries = append(l.entries[:i], l.entries[i+1:]...)
			return true
		}
	}
	return false
}

// pop removes and returns the next hand-off group: the head write
// requester alone, or every queued read requester when a read is at the
// head.
func (l *requesterList) pop() []sched.Request {
	if len(l.entries) == 0 {
		return nil
	}
	if l.entries[0].req.Mode == sched.Write {
		head := l.entries[0].req
		l.entries = l.entries[1:]
		return []sched.Request{head}
	}
	// Reads are compatible: release all of them at once.
	var reads []sched.Request
	var rest []listEntry
	for _, e := range l.entries {
		if e.req.Mode == sched.Read {
			reads = append(reads, e.req)
		} else {
			rest = append(rest, e)
		}
	}
	l.entries = rest
	return reads
}
