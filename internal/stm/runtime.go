package stm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dstm/internal/cc"
	"dstm/internal/cluster"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/stats"
	"dstm/internal/trace"
	"dstm/internal/transport"
	"dstm/internal/vclock"
)

// Runtime is one node's D-STM engine: the TFA transaction manager, the
// owner-side object protocol (retrieve / validate / lock / commit /
// hand-off), and the hook point for the transactional scheduler.
//
// Construct one Runtime per node with NewRuntime, then start transactions
// with Atomic. The Runtime is the "TM proxy" of Herlihy & Sun's model.
type Runtime struct {
	ep      *cluster.Endpoint
	clock   *vclock.Clock
	store   *object.Store
	locator *cc.Service
	policy  sched.Policy
	stats   *stats.Table
	metrics *Metrics

	txSeq atomic.Uint64

	waitMu  sync.Mutex
	waiters map[waitKey]chan pushMsg

	nesting NestingMode
	tracer  *trace.Recorder
}

type waitKey struct {
	tx  uint64
	oid object.ID
}

// NestingMode selects how Txn.Atomic treats inner atomic blocks.
type NestingMode uint8

// Nesting modes (paper §I): closed nesting lets an inner transaction abort
// and retry without disturbing its parent; flat nesting inlines inner
// blocks into the parent, so any inner failure aborts the whole top-level
// transaction.
const (
	ClosedNesting NestingMode = iota
	FlatNesting
)

func (m NestingMode) String() string {
	if m == FlatNesting {
		return "flat"
	}
	return "closed"
}

// feedbacker is implemented by policies that adapt to outcomes (RTS's
// adaptive CL threshold).
type feedbacker interface{ Feedback(committed bool) }

// NewRuntime wires a Runtime onto an endpoint. size is the cluster size
// (for directory placement); policy is the transactional scheduler; st is
// the per-node transaction stats table (may be nil for a default).
func NewRuntime(ep *cluster.Endpoint, size int, policy sched.Policy, st *stats.Table) *Runtime {
	if st == nil {
		st = stats.NewTable(time.Millisecond)
	}
	rt := &Runtime{
		ep:      ep,
		clock:   ep.Clock(),
		store:   object.NewStore(),
		locator: cc.NewService(ep, size),
		policy:  policy,
		stats:   st,
		metrics: &Metrics{},
		waiters: make(map[waitKey]chan pushMsg),
	}
	ep.Handle(KindRetrieve, rt.handleRetrieve)
	ep.Handle(KindCheckVersionBatch, rt.handleValidate)
	ep.Handle(KindCommitObjectBatch, rt.handleCommitObjectBatch)
	ep.HandleNotify(KindPush, rt.handlePush)
	ep.HandleNotify(KindDecline, rt.handleDecline)
	return rt
}

// Self returns this node's ID.
func (rt *Runtime) Self() transport.NodeID { return rt.ep.Self() }

// SetNesting selects closed (default) or flat nesting for inner atomic
// blocks started through Txn.Atomic. Call before running transactions.
func (rt *Runtime) SetNesting(m NestingMode) { rt.nesting = m }

// SetTracer wires a protocol event recorder through every layer this
// runtime owns: transaction lifecycle (this package), the owner-side
// commit-lock state machine (the store's trace hook), the scheduler queue
// (policies exposing SetTracer), and the messaging layer (the endpoint).
// Call once, after NewRuntime and before any transactions run; nil
// disables. A nil recorder costs one pointer check per event site.
func (rt *Runtime) SetTracer(tr *trace.Recorder) {
	rt.tracer = tr
	rt.ep.SetTracer(tr)
	if p, ok := rt.policy.(interface{ SetTracer(*trace.Recorder) }); ok {
		p.SetTracer(tr)
	}
	if tr == nil {
		rt.store.SetTrace(nil)
		return
	}
	// The store already narrates its lock transitions through a debug hook
	// (emitted under the store mutex, so transitions are totally ordered per
	// object); adapt the ops the checker models onto trace events.
	rt.store.SetTrace(func(op string, id object.ID, tx, a uint64) {
		switch op {
		case "lock-ok":
			tr.Emit(trace.Event{Type: trace.EvLockAcquire, Tx: tx, Oid: id})
		case "install-locked":
			tr.Emit(trace.Event{Type: trace.EvLockAcquire, Tx: tx, Oid: id, Detail: "install"})
		case "unlock", "commit", "remove", "migrate":
			tr.Emit(trace.Event{Type: trace.EvLockRelease, Tx: tx, Oid: id, Detail: op, A: a})
		case "install":
			tr.Emit(trace.Event{Type: trace.EvInstall, Oid: id, A: a})
		}
	})
}

// Metrics returns the node's transaction outcome counters.
func (rt *Runtime) Metrics() *Metrics { return rt.metrics }

// Policy returns the node's transactional scheduler.
func (rt *Runtime) Policy() sched.Policy { return rt.policy }

// Stats returns the node's transaction stats table.
func (rt *Runtime) Stats() *stats.Table { return rt.stats }

// Store exposes the owner-side object store (tests and setup helpers).
func (rt *Runtime) Store() *object.Store { return rt.store }

// Locator exposes the node's CC service (tests and setup helpers).
func (rt *Runtime) Locator() *cc.Service { return rt.locator }

// Endpoint exposes the node's RPC endpoint (tests).
func (rt *Runtime) Endpoint() *cluster.Endpoint { return rt.ep }

func (rt *Runtime) nextTxID() uint64 {
	// Node-unique transaction IDs: node in the top bits, sequence below.
	return uint64(rt.ep.Self())<<40 | rt.txSeq.Add(1)
}

// CreateRoot seeds one object during setup: CreateRoots of one.
func (rt *Runtime) CreateRoot(ctx context.Context, id object.ID, val object.Value) error {
	return rt.CreateRoots(ctx, []object.ID{id}, []object.Value{val})
}

// CreateRoots seeds objects during setup, outside any transaction: it
// installs each ids[i] with value vals[i] here, then registers them all with
// their homes, one message per home and all at once
// (cc.Service.RegisterBatch). Each entry stands alone: an object this node
// holds already keeps its value and version, and an object whose home
// refuses it (it is registered already) is not kept here unless it was
// here before. The error names the first refusal or failed call; the
// entries of a failed call stay installed, since their registration may
// have landed.
func (rt *Runtime) CreateRoots(ctx context.Context, ids []object.ID, vals []object.Value) error {
	if len(ids) != len(vals) {
		return fmt.Errorf("stm: create roots: %d ids, %d values", len(ids), len(vals))
	}
	fresh := make(map[object.ID]bool, len(ids)) // installed by this call
	for _, id := range ids {
		if _, dup := fresh[id]; dup {
			return fmt.Errorf("stm: create roots: %q listed twice", id)
		}
		fresh[id] = false
	}
	for i, id := range ids {
		fresh[id] = rt.store.InstallNew(id, vals[i])
	}
	refused, _, err := rt.locator.RegisterBatch(ctx, ids, rt.Self())
	for _, id := range refused {
		if fresh[id] {
			_ = rt.store.Remove(id, 0) // unlocked, so tx 0 holds its lock
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// Owner-side protocol handlers.

func (rt *Runtime) handleRetrieve(from transport.NodeID, payload any) (any, error) {
	return rt.serveRetrieve(from, payload, false)
}

// handleValidate serves a validation (Txn.checkVersions) as a prefetch
// retrieve, whatever the request says: the version of each entry held here,
// with no value, a denial of each entry another transaction holds
// commit-locked, with no scheduler decision and nothing queued or locked.
func (rt *Runtime) handleValidate(from transport.NodeID, payload any) (any, error) {
	return rt.serveRetrieve(from, payload, true)
}

// serveRetrieve answers a retrieve, or with validate a validation. The reply
// is a cut as of OwnerClock: every entry is copied, the clock read and every
// conflict decided in one critical section (Store.Read). A commit that
// touches one of them later locks it after that read, hence ticks past
// OwnerClock, and a lock that takes an entry enqueued here away finds the
// requester queued. An entry the store does not hold is answered after the
// read and outside the store's mutex, from the locator (a pointer to chase,
// not part of the cut): Moved to the other node it names, else NotOwner.
func (rt *Runtime) serveRetrieve(from transport.NodeID, payload any, validate bool) (any, error) {
	req, ok := payload.(retrieveReq)
	if !ok {
		return nil, fmt.Errorf("stm: bad retrieve payload %T", payload)
	}
	if validate {
		req.Prefetch, req.LockID = true, 0
	}
	resp := retrieveResp{Results: make([]retrieveResult, len(req.Oids))}
	var buf [8]object.Copy // a batch of up to 8 is read without allocating
	copies, clock := rt.store.Read(buf[:0], req.Oids, rt.clock.Now, func(i int, c object.Copy) {
		rt.retrieveOne(from, &req, req.Oids[i], &c, &resp.Results[i])
	})
	resp.OwnerClock = clock
	if req.LockID != 0 {
		rt.lockAnnounced(from, &req, copies, &resp)
	}
	for i := range resp.Results {
		switch r := &resp.Results[i]; {
		case !copies[i].Owned:
			r.Status = statusNotOwner
			if owner, ok := rt.locator.Known(req.Oids[i]); ok && owner != rt.Self() {
				r.Status, r.MovedTo = statusMoved, owner
			}
		case r.Status == statusOK && r.Value == nil && !validate:
			// The receiver's copy of a value still held here; a validation
			// compares versions only.
			r.Value = copies[i].Val.Copy()
		}
	}
	return resp, nil
}

// lockAnnounced serves a locking retrieve (Txn.lockWave), the one owner-side
// commit-lock step: it commit-locks, for req.LockID, every entry this node
// held when the request's copies were read, at the version read, all or
// nothing (Store.LockBatch), and answers those copies with Locked set. When
// any entry cannot be locked — another transaction holds it, or a commit got
// to it after the read — nothing is locked, and the answers stay those of
// the plain prefetch the read decided.
//
// A lock for another node is a migration: each locked entry leaves the store
// for the requester, which installs it locked (Store.Migrate), its
// requester queue goes with it in the reply (a retrieve
// enqueues only under the store's mutex while the object is here, so that
// queue is complete), and this node's directory shard or hint names the
// requester (cc.Service.Moved), and so do its hints for the objects the
// same wave takes from other nodes (req.Taking): once the commit publishes,
// no message tells this node where those went. A lock refused elsewhere
// leaves those hints wrong, to be chased as any stale hint is. The value
// left the store, so the reply carries it uncopied.
func (rt *Runtime) lockAnnounced(from transport.NodeID, req *retrieveReq, copies []object.Copy, resp *retrieveResp) {
	entries := make([]object.LockEntry, 0, len(req.Oids))
	for i, c := range copies {
		if c.Owned {
			entries = append(entries, object.LockEntry{ID: req.Oids[i], Expect: c.Ver})
		}
	}
	if _, applied := rt.store.LockBatch(req.LockID, entries); !applied || len(entries) == 0 {
		return
	}
	resp.Locked = true
	var handed []object.ID
	for i, c := range copies {
		if !c.Owned {
			continue
		}
		r, oid := &resp.Results[i], req.Oids[i]
		r.Status, r.Version = statusOK, c.Ver
		if from == rt.Self() {
			continue
		}
		// Locked for req.LockID a moment ago, so the migration cannot be
		// refused: only a lock's holder frees it.
		_ = rt.store.Migrate(oid, req.LockID)
		r.Value, r.Queue = c.Val, rt.policy.ExtractQueue(oid)
		handed = append(handed, oid)
	}
	if len(handed) > 0 {
		// Each was held here, so registered: no shard entry is missing.
		_ = rt.moved(handed, from, req.LockID)
		rt.locator.Hint(req.Taking, from)
	}
}

// retrieveOne answers one object of a retrieve into out (zero on entry)
// from c, with the store locked (serveRetrieve's read): its version (the
// value is copied after the read), or — when the object is being validated
// by a committing transaction — the transactional scheduler's decision for
// this requester. Both go by pointer: this runs once per entry inside the
// store's critical section. An object not held here is left to
// serveRetrieve, which answers it from the locator after the read.
func (rt *Runtime) retrieveOne(from transport.NodeID, req *retrieveReq, oid object.ID, c *object.Copy, out *retrieveResult) {
	if !c.Owned {
		return
	}
	locked := c.LockedBy != 0
	if locked && req.Prefetch {
		// Left alone: not a conflict the transaction has run into yet.
		out.Status = statusDenied
		return
	}
	// Only now: a request that chased a stale hint here must not count
	// towards the contention level of an object this node does not own.
	out.RemoteCL = rt.policy.ObserveRequest(oid, req.TxID)
	if !locked {
		out.Status, out.Version = statusOK, c.Ver
		return
	}

	// A conflict: the scheduler decides (RTS Algorithm 3).
	dec := rt.policy.OnConflict(sched.Request{
		Oid:               oid,
		TxID:              req.TxID,
		Node:              from,
		Mode:              req.Mode,
		MyCL:              req.MyCL,
		Elapsed:           req.Elapsed,
		ExpectedRemaining: req.Remain,
	})
	out.Status = statusDenied
	if dec.Enqueue {
		rt.metrics.enqueues.Add(1)
		out.Status, out.Backoff = statusEnqueued, dec.Backoff
	}
}

// handleCommitObjectBatch serves one message of a homes wave
// (Txn.tellHomes): everything the message names moved to NewOwner, under
// the lock of identity TxID. The reply has no body; a directory error is
// the call's error.
func (rt *Runtime) handleCommitObjectBatch(_ transport.NodeID, payload any) (any, error) {
	req, ok := payload.(commitObjBatchReq)
	if !ok {
		return nil, fmt.Errorf("stm: bad commit batch payload %T", payload)
	}
	return nil, rt.moved(req.Moved, req.NewOwner, req.TxID)
}

// moved records at this node that the lock of identity lockID brought ids
// to owner (cc.Service.Moved), and traces each directory entry of this
// node's shard it rewrote, so the oracle can tell when a home knew.
func (rt *Runtime) moved(ids []object.ID, owner transport.NodeID, lockID uint64) error {
	err := rt.locator.Moved(ids, owner)
	for _, id := range ids {
		if rt.tracer.Enabled() && rt.locator.Home(id) == rt.Self() {
			rt.tracer.Emit(trace.Event{Type: trace.EvDirUpdate, Tx: lockID, Oid: id, A: uint64(owner)})
		}
	}
	return err
}

// handOff pushes the object's current state to the requesters its
// scheduler queue gives up now (RTS Algorithm 4). The pop, the value and the
// clock come from one store read, so the push is a consistent cut, as a
// retrieve reply is; the pushes are sent after it, each with its own copy of
// the value, so an object nobody is queued for costs no copy. An object gone
// or locked is left alone, its queue untouched: a migration took the queue
// with it, and the lock holder's publish or release hands it off once it is
// free.
func (rt *Runtime) handOff(oid object.ID) {
	var buf [1]object.Copy
	var popped []sched.Request
	cs, clock := rt.store.Read(buf[:0], []object.ID{oid}, rt.clock.Now, func(_ int, c object.Copy) {
		if c.Owned && c.LockedBy == 0 {
			popped = rt.policy.OnRelease(oid)
		}
	})
	for _, r := range popped {
		_ = rt.ep.Notify(r.Node, KindPush, pushMsg{
			Oid:        r.Oid,
			TxID:       r.TxID,
			Value:      cs[0].Val.Copy(),
			Version:    cs[0].Ver,
			Owner:      rt.Self(),
			OwnerClock: clock,
			RemoteCL:   rt.policy.ObserveRequest(r.Oid, r.TxID),
		})
	}
}

// handlePush delivers a pushed object to the parked transaction, or
// declines so the owner forwards it to the next requester (Algorithm 4).
func (rt *Runtime) handlePush(from transport.NodeID, payload any) {
	msg, ok := payload.(pushMsg)
	if !ok {
		return
	}
	ch := rt.waiter(msg.TxID, msg.Oid)
	if ch == nil {
		_ = rt.ep.Notify(from, KindDecline, declineMsg{Oid: msg.Oid})
		return
	}
	select {
	case ch <- msg:
		rt.metrics.pushes.Add(1)
	default:
		// Duplicate push; the first one wins.
	}
}

func (rt *Runtime) handleDecline(_ transport.NodeID, payload any) {
	msg, ok := payload.(declineMsg)
	if !ok {
		return
	}
	rt.handOff(msg.Oid)
}

// ---------------------------------------------------------------------------
// Waiter registry (requester side of the enqueue protocol).

func (rt *Runtime) registerWaiter(tx uint64, oid object.ID) {
	rt.waitMu.Lock()
	rt.waiters[waitKey{tx: tx, oid: oid}] = make(chan pushMsg, 1)
	rt.waitMu.Unlock()
}

// waiter returns the channel tx is registered on for oid, nil when it is not.
func (rt *Runtime) waiter(tx uint64, oid object.ID) chan pushMsg {
	rt.waitMu.Lock()
	defer rt.waitMu.Unlock()
	return rt.waiters[waitKey{tx: tx, oid: oid}]
}

func (rt *Runtime) deregisterWaiter(tx uint64, oid object.ID) {
	rt.waitMu.Lock()
	delete(rt.waiters, waitKey{tx: tx, oid: oid})
	rt.waitMu.Unlock()
}

// feedback reports a root-transaction outcome to adaptive policies.
func (rt *Runtime) feedback(committed bool) {
	if f, ok := rt.policy.(feedbacker); ok {
		f.Feedback(committed)
	}
}
