package stm

import (
	"context"
	"fmt"
	"slices"
	"sync"
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

	txSeq uint64
	seqMu sync.Mutex

	waitMu  sync.Mutex
	waiters map[waitKey]chan pushMsg

	// migrated remembers, per object, the node the commit that last took it
	// away from this node took it to; any request for the departed object
	// is answered with it (notHere).
	migrMu   sync.Mutex
	migrated map[object.ID]transport.NodeID

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
		ep:       ep,
		clock:    ep.Clock(),
		store:    object.NewStore(),
		locator:  cc.NewService(ep, size),
		policy:   policy,
		stats:    st,
		metrics:  &Metrics{},
		waiters:  make(map[waitKey]chan pushMsg),
		migrated: make(map[object.ID]transport.NodeID),
	}
	ep.Handle(KindRetrieve, rt.handleRetrieve)
	ep.Handle(KindRelease, rt.handleRelease)
	ep.Handle(KindAcquireBatch, rt.handleAcquireBatch)
	ep.Handle(KindCheckVersionBatch, rt.handleCheckVersionBatch)
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
			tr.Emit(trace.Event{Type: trace.EvLockAcquire, Tx: tx, Oid: id, Detail: "create"})
		case "unlock":
			tr.Emit(trace.Event{Type: trace.EvLockRelease, Tx: tx, Oid: id, Detail: "unlock"})
		case "commit":
			tr.Emit(trace.Event{Type: trace.EvLockRelease, Tx: tx, Oid: id, Detail: "commit", A: a})
		case "remove":
			tr.Emit(trace.Event{Type: trace.EvLockRelease, Tx: tx, Oid: id, Detail: "migrate"})
		case "lock-expired":
			tr.Emit(trace.Event{Type: trace.EvLeaseExpire, Tx: tx, Oid: id})
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
	rt.seqMu.Lock()
	rt.txSeq++
	seq := rt.txSeq
	rt.seqMu.Unlock()
	// Node-unique transaction IDs: node in the top bits, sequence below.
	return uint64(rt.ep.Self())<<40 | seq
}

// CreateRoot seeds an object during setup: installs it locally and
// registers it with its home directory, outside any transaction.
func (rt *Runtime) CreateRoot(ctx context.Context, id object.ID, val object.Value) error {
	rt.store.Install(id, val, object.Version{})
	return rt.locator.Register(ctx, id, rt.Self())
}

// ---------------------------------------------------------------------------
// Owner-side protocol handlers.

func (rt *Runtime) handleRetrieve(from transport.NodeID, payload any) (any, error) {
	req, ok := payload.(retrieveReq)
	if !ok {
		return nil, fmt.Errorf("stm: bad retrieve payload %T", payload)
	}
	resp := retrieveResp{Results: make([]retrieveResult, len(req.Oids))}
	if req.LockID != 0 && rt.lockAnnounced(&req, &resp) {
		return resp, nil
	}
	for i, oid := range req.Oids {
		resp.Results[i] = rt.retrieveOne(from, &req, oid)
	}
	// The reply is a cut as of OwnerClock: the clock is read after every copy
	// was served (so it covers each version handed out), and every copy is
	// then confirmed still current and unlocked. A commit that touches one of
	// them later takes its lock after this check, hence ticks past OwnerClock
	// — the requester may treat the copies as unchanged up to that clock. A
	// copy a commit got to in between is served again, and the clock re-read.
	for {
		resp.OwnerClock = rt.clock.Now()
		intact := true
		for i, oid := range req.Oids {
			r := &resp.Results[i]
			if r.Status != statusOK {
				continue
			}
			if ver, lockedBy, owned := rt.store.State(oid); !owned || lockedBy != 0 || !ver.Equal(r.Version) {
				*r = rt.retrieveOne(from, &req, oid)
				intact = false
			}
		}
		if intact {
			return resp, nil
		}
	}
}

// lockAnnounced serves a write set announced with write intent: it
// commit-locks, for req.LockID, every entry this node holds at the version
// it copies, all or nothing (commitLock), and answers those copies with
// Locked set and the rest with the "not here" answer. A locked copy is
// trivially a consistent cut: nothing can commit it until the lock holder
// does. When any entry cannot be locked — another transaction holds it, a
// commit got to it between the copy and the lock, or the store fenced it for
// req.LockID because a release overtook this request — nothing is locked and
// it reports false; the request is then served as a plain prefetch.
func (rt *Runtime) lockAnnounced(req *retrieveReq, resp *retrieveResp) bool {
	entries := make([]object.LockEntry, 0, len(req.Oids))
	for i, oid := range req.Oids {
		val, ver, _, owned := rt.store.Snapshot(oid)
		if !owned {
			a := rt.notHere(oid)
			resp.Results[i] = retrieveResult{Status: a.Status, MovedTo: a.MovedTo}
			continue
		}
		resp.Results[i] = retrieveResult{Status: statusOK, Value: val, Version: ver}
		entries = append(entries, object.LockEntry{ID: oid, Expect: ver})
	}
	if _, applied := rt.commitLock(req.LockID, entries); !applied {
		return false
	}
	for i, oid := range req.Oids {
		if r := &resp.Results[i]; r.Status == statusOK {
			r.RemoteCL = rt.policy.ObserveRequest(oid, req.TxID)
		}
	}
	resp.OwnerClock, resp.Locked = rt.clock.Now(), true
	return true
}

// retrieveOne serves one object of a retrieve: the current copy, or — when
// the object is being validated by a committing transaction — the
// transactional scheduler's decision for this requester.
func (rt *Runtime) retrieveOne(from transport.NodeID, req *retrieveReq, oid object.ID) retrieveResult {
	val, ver, locked, owned := rt.store.Snapshot(oid)
	if !owned {
		a := rt.notHere(oid)
		return retrieveResult{Status: a.Status, MovedTo: a.MovedTo}
	}
	if locked && req.Prefetch {
		// Left alone: not a conflict the transaction has run into yet.
		return retrieveResult{Status: statusDenied}
	}
	// Only now: a request that chased a stale hint here must not count
	// towards the contention level of an object this node does not own.
	localCL := rt.policy.ObserveRequest(oid, req.TxID)
	if !locked {
		return retrieveResult{Status: statusOK, Value: val, Version: ver, RemoteCL: localCL}
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
	if dec.Enqueue {
		rt.metrics.enqueues.Add(1)
		return retrieveResult{Status: statusEnqueued, RemoteCL: localCL, Backoff: dec.Backoff}
	}
	return retrieveResult{Status: statusDenied, RemoteCL: localCL}
}

// notHere is this node's answer for an object it does not hold, whichever
// step asks: Moved to the node a commit last took it to (Runtime.migrated),
// else NotOwner.
func (rt *Runtime) notHere(oid object.ID) answer {
	rt.migrMu.Lock()
	to, moved := rt.migrated[oid]
	rt.migrMu.Unlock()
	if moved {
		return answer{Status: statusMoved, MovedTo: to}
	}
	return answer{Status: statusNotOwner}
}

func (rt *Runtime) handleRelease(_ transport.NodeID, payload any) (any, error) {
	req, ok := payload.(releaseReq)
	if !ok {
		return nil, fmt.Errorf("stm: bad release payload %T", payload)
	}
	for _, oid := range req.Oids {
		rt.store.Unlock(oid, req.TxID)
		// The commit failed, so the object stays here unchanged; hand the
		// current value to any queued requesters — unless the object is
		// (still) locked by someone else (e.g. this was a conservative
		// release of a lock that was never actually held).
		if !rt.store.Locked(oid) {
			rt.serveQueue(oid, rt.policy.OnRelease(oid))
		}
	}
	return releaseReq{}, nil
}

// migrateOut surrenders one object to the committing transaction tx, which
// runs on node to: ownership migrates to the committer, so drop the local
// copy (requires the committer to hold the commit lock) and hand back the
// requester queue so scheduling state travels with the object. The endpoint
// serves each commit request at most once, so an object already gone is an
// error.
func (rt *Runtime) migrateOut(oid object.ID, tx uint64, to transport.NodeID) ([]sched.Request, error) {
	if err := rt.store.Remove(oid, tx); err != nil {
		return nil, err
	}
	rt.migrMu.Lock()
	rt.migrated[oid] = to
	rt.migrMu.Unlock()
	return rt.policy.ExtractQueue(oid), nil
}

// ---------------------------------------------------------------------------
// Owner-grouped batch handlers: one message covers every object of a commit
// that this node owns (O(owners) commit rounds instead of O(objects)).

func (rt *Runtime) handleAcquireBatch(_ transport.NodeID, payload any) (any, error) {
	req, ok := payload.(verBatchReq)
	if !ok {
		return nil, fmt.Errorf("stm: bad acquire batch payload %T", payload)
	}
	entries := make([]object.LockEntry, len(req.Entries))
	for i, e := range req.Entries {
		entries[i] = object.LockEntry{ID: e.Oid, Expect: e.Ver}
	}
	answers, _ := rt.commitLock(req.TxID, entries)
	return answersResp{Results: answers}, nil
}

// commitLock is the one owner-side commit-lock step, shared by an acquire
// batch and an announced write set: it locks every entry for tx at its
// expected version as one atomic step (Store.LockBatch) and answers each —
// statusOK, statusStale, statusBusy or the "not here" answer. applied
// reports whether the locks were taken; when false, none was.
func (rt *Runtime) commitLock(tx uint64, entries []object.LockEntry) ([]answer, bool) {
	results, applied := rt.store.LockBatch(tx, entries)
	answers := make([]answer, len(results))
	for i, r := range results {
		switch r {
		case object.LockOK:
			answers[i] = answer{Status: statusOK}
		case object.LockStale:
			answers[i] = answer{Status: statusStale}
		case object.LockNotOwner:
			answers[i] = rt.notHere(entries[i].ID)
		default:
			answers[i] = answer{Status: statusBusy}
		}
	}
	return answers, applied
}

func (rt *Runtime) handleCheckVersionBatch(_ transport.NodeID, payload any) (any, error) {
	req, ok := payload.(verBatchReq)
	if !ok {
		return nil, fmt.Errorf("stm: bad check batch payload %T", payload)
	}
	resp := answersResp{Results: make([]answer, len(req.Entries))}
	for i, e := range req.Entries {
		ver, lockedBy, owned := rt.store.State(e.Oid)
		switch {
		case !owned:
			resp.Results[i] = rt.notHere(e.Oid)
		// A version is valid only if unchanged AND not mid-commit by another
		// transaction (whose new version would be installed momentarily).
		case !ver.Equal(e.Ver) || lockedBy != 0 && lockedBy != req.TxID:
			resp.Results[i] = answer{Status: statusStale}
		}
	}
	return resp, nil
}

// handleCommitObjectBatch serves one message of a publish wave: surrender
// this node's entries, then remember where everything the commit moved went
// — except an entry refused just now, which is still here.
func (rt *Runtime) handleCommitObjectBatch(_ transport.NodeID, payload any) (any, error) {
	req, ok := payload.(commitObjBatchReq)
	if !ok {
		return nil, fmt.Errorf("stm: bad commit batch payload %T", payload)
	}
	resp := commitObjBatchResp{Results: make([]commitObjBatchResult, len(req.Oids))}
	for i, oid := range req.Oids {
		queue, err := rt.migrateOut(oid, req.TxID, req.NewOwner)
		if err != nil {
			resp.Results[i].Err = err.Error()
			continue
		}
		resp.Results[i].Queue = queue
	}
	moved := slices.DeleteFunc(slices.Clone(req.Moved), rt.store.Owns)
	if err := rt.locator.Moved(moved, req.NewOwner); err != nil {
		resp.DirErr = err.Error()
	}
	return resp, nil
}

// serveQueue pushes the object's current state to the requesters popped from
// the scheduler queue. The push is a consistent cut, as a retrieve reply is
// (handleRetrieve): the clock is read after the copy was taken, and the copy
// is then confirmed still current and unlocked, or taken again. An object a
// commit has locked in between goes to that commit: the requesters go back to
// the head of the queue, and the lock holder's publish or release serves them.
func (rt *Runtime) serveQueue(oid object.ID, reqs []sched.Request) {
	if len(reqs) == 0 {
		return
	}
	val, ver, locked, owned := rt.store.Snapshot(oid)
	if !owned {
		return
	}
	cls := make([]int, len(reqs))
	for i, r := range reqs {
		cls[i] = rt.policy.ObserveRequest(r.Oid, r.TxID)
	}
	var clock uint64
	for {
		if !owned {
			return
		}
		if locked {
			rt.policy.AdoptQueue(oid, reqs)
			return
		}
		clock = rt.clock.Now()
		if now, lockedBy, ok := rt.store.State(oid); ok && lockedBy == 0 && now.Equal(ver) {
			break
		}
		val, ver, locked, owned = rt.store.Snapshot(oid)
	}
	for i, r := range reqs {
		_ = rt.ep.Notify(r.Node, KindPush, pushMsg{
			Oid:        r.Oid,
			TxID:       r.TxID,
			Value:      val.Copy(),
			Version:    ver,
			Owner:      rt.Self(),
			OwnerClock: clock,
			RemoteCL:   cls[i],
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
	rt.serveQueue(msg.Oid, rt.policy.OnRelease(msg.Oid))
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

// ---------------------------------------------------------------------------
// Lock-lease expiry (crash robustness).

// StartLeaseExpiry launches a reaper that force-releases commit locks held
// longer than lease and hands the freed objects to their queued requesters.
// It is the owner-side defence against a crashed or partitioned committer:
// without it, a lock whose holder died mid-commit wedges every transaction
// queued behind the object forever (the paper's model excludes this by
// assuming reliable delivery and no failures).
//
// The lease must comfortably exceed the longest healthy commit (a few call
// timeouts), or live committers will have their locks stolen mid-publish.
// The returned stop function halts the reaper; calling it more than once is
// safe.
func (rt *Runtime) StartLeaseExpiry(lease time.Duration) (stop func()) {
	interval := lease / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				for _, oid := range rt.store.ExpireLocks(lease) {
					rt.metrics.leaseExpiries.Add(1)
					rt.serveQueue(oid, rt.policy.OnRelease(oid))
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
