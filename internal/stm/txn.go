package stm

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"dstm/internal/cc"
	"dstm/internal/cluster"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/trace"
	"dstm/internal/transport"
)

// abortError unwinds an aborting transaction to the level that must retry.
// Closed nesting: a failure attributed to an inner transaction aborts only
// that inner transaction; a failure attributed to an ancestor aborts the
// ancestor and every (committed or running) transaction nested inside it.
type abortError struct {
	target *Txn
	cause  AbortCause
}

func (e *abortError) Error() string {
	return fmt.Sprintf("stm: transaction aborted (%s)", e.cause)
}

// maxOwnerHops bounds the waves of one owner-wave chase (ownerWave).
const maxOwnerHops = 8

// errOwnerHops ends an owner wave whose objects moved more times than it
// chases.
var errOwnerHops = errors.New("stm: objects moved more than maxOwnerHops times")

// Txn is a (possibly closed-nested) transaction. Obtain a root transaction
// from Runtime.Atomic and children from Txn.Atomic. A Txn is confined to
// the goroutine executing its atomic block: every step of an attempt,
// Prefetch included, runs there in order.
type Txn struct {
	rt     *Runtime
	id     uint64 // root transaction ID, shared by all nested levels
	lockID uint64 // per-ATTEMPT identity used for commit locks (root only)
	name   string
	parent *Txn
	root   *Txn

	// Root-only fields (TFA state).
	began        time.Time // the first attempt's start (ETS.s)
	attemptBegan time.Time // this attempt's start
	expected     time.Duration
	start        uint64   // TFA start clock; advanced by forwarding
	readRPCs     uint64   // the attempt's data-path read messages (Metrics.ReadMsgs)
	held         holdings // what the root attempt holds at the owners

	entries        map[object.ID]*objEntry
	clSum          int // Σ remote CLs of objects fetched at this level
	mergedChildren int // inner commits merged into this level (transitive)
}

// objEntry is one object's transaction-local state: the working copy, the
// version observed at fetch, and write/create flags. inherited marks a
// copy-on-write entry whose version was observed by an ANCESTOR — if it
// turns out stale, the ancestor's snapshot is broken and the ancestor must
// abort, not this level.
type objEntry struct {
	val       object.Value
	ver       object.Version
	dirty     bool
	created   bool
	inherited bool
}

// Atomic runs fn as a top-level transaction, retrying on conflicts until it
// commits, the context is cancelled, or fn returns a non-transactional
// error (which aborts the transaction and is returned as-is).
func (rt *Runtime) Atomic(ctx context.Context, name string, fn func(tx *Txn) error) error {
	id := rt.nextTxID()
	// ETS.s is the transaction's original start time: it persists across
	// retry attempts, so the "execution time" the scheduler weighs keeps
	// growing while the transaction keeps losing (paper Fig. 3: T4's
	// execution time is |t4 − t1|, measured from its first start).
	began := time.Now()
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		tx := &Txn{
			rt:   rt,
			id:   id,
			name: name,
			// Each attempt locks under a fresh identity so a stale lock
			// request from a cancelled attempt can never be confused with
			// (or resurrect over) a newer attempt's locks.
			lockID:       rt.nextTxID(),
			began:        began,
			attemptBegan: time.Now(),
			expected:     rt.stats.Expect(name),
			start:        rt.clock.Now(),
			entries:      make(map[object.ID]*objEntry),
		}
		tx.root = tx
		// B carries the attempt's lock identity so trace checkers can match
		// owner-side lock events (keyed by lockID) to this attempt's fate.
		rt.tracer.Emit(trace.Event{Type: trace.EvTxBegin, Tx: id, A: uint64(attempt), B: tx.lockID})

		err := fn(tx)
		if err == nil {
			err = tx.commit(ctx)
		}
		// Whatever the ending, what the attempt still holds locked is released
		// before the outcome is told (past the commit point the commit took
		// the set over).
		_ = tx.releaseLocks(ctx, tx.held.locked, nil, object.Version{}, nil)
		if err == nil {
			rt.metrics.commits.Add(1)
			rt.metrics.observeOutcome(true, 0, time.Since(tx.attemptBegan))
			rt.tracer.Emit(trace.Event{Type: trace.EvTxCommit, Tx: id})
			rt.feedback(true)
			return nil
		}

		var ae *abortError
		if !errors.As(err, &ae) {
			// Application error: the transaction's effects are discarded
			// and the error surfaces to the caller without retry.
			return err
		}
		rt.metrics.aborts[ae.cause].Add(1)
		rt.metrics.observeOutcome(false, ae.cause, time.Since(tx.attemptBegan))
		rt.tracer.Emit(trace.Event{Type: trace.EvTxAbort, Tx: id, Detail: ae.cause.String()})
		// Every inner transaction that had committed into this root is
		// rolled back with it (Table I's "aborts due to parent abort").
		rt.metrics.nestedParent.Add(uint64(tx.mergedChildren))
		rt.feedback(false)

		if err := ctx.Err(); err != nil {
			return err
		}
		if d := rt.policy.RetryDelay(attempt, name); d > 0 {
			if !sleepCtx(ctx, d) {
				return ctx.Err()
			}
		}
	}
}

// Atomic runs fn as a closed-nested inner transaction. The inner
// transaction's effects become part of the parent only when fn returns nil
// and its forwarding step passes; an inner abort retries just the inner
// transaction. If an enclosing transaction must abort, the error
// propagates (do not swallow errors from Read/Write/Atomic).
//
// fn may run several times: any state it writes outside the transaction
// must be overwrite-style (reset at the top of fn), never accumulative.
func (tx *Txn) Atomic(ctx context.Context, name string, fn func(child *Txn) error) error {
	rt := tx.rt
	if rt.nesting == FlatNesting {
		// Flat nesting: the inner block is inlined into the enclosing
		// transaction — no private sets, no partial abort; any conflict
		// unwinds and restarts the whole top-level transaction.
		return fn(tx)
	}
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		child := &Txn{
			rt:      rt,
			id:      tx.id,
			name:    name,
			parent:  tx,
			root:    tx.root,
			entries: make(map[object.ID]*objEntry),
		}
		rt.tracer.Emit(trace.Event{Type: trace.EvNestBegin, Tx: tx.id, A: uint64(attempt)})
		err := fn(child)
		if err == nil {
			// An inner commit is a forwarding step: the chain is revalidated
			// exactly when this node has heard of a commit since the
			// transaction's start, so a stale inner read that is known about
			// retries just the inner transaction, and a quiet clock costs no
			// message (the root commit's version checks catch the rest).
			err = child.forward(ctx, rt.clock.Now())
		}
		if err == nil {
			child.mergeIntoParent()
			rt.metrics.nestedCommits.Add(1)
			rt.tracer.Emit(trace.Event{Type: trace.EvNestMerge, Tx: tx.id})
			return nil
		}

		var ae *abortError
		if !errors.As(err, &ae) {
			return err // application error: inner effects discarded
		}
		if ae.target == child {
			// Closed nesting: only the inner transaction aborts; its own
			// committed children are rolled back with it.
			rt.metrics.nestedOwn.Add(1)
			rt.metrics.nestedParent.Add(uint64(child.mergedChildren))
			rt.tracer.Emit(trace.Event{Type: trace.EvNestAbort, Tx: tx.id, Detail: "own"})
			if d := rt.policy.RetryDelay(attempt, name); d > 0 {
				if !sleepCtx(ctx, d) {
					return ctx.Err()
				}
			}
			continue
		}
		// An enclosing transaction aborts: this running child dies with it.
		rt.metrics.nestedParent.Add(uint64(1 + child.mergedChildren))
		rt.tracer.Emit(trace.Event{Type: trace.EvNestAbort, Tx: tx.id, Detail: "parent"})
		return err
	}
}

func (child *Txn) mergeIntoParent() {
	p := child.parent
	for oid, e := range child.entries {
		p.entries[oid] = e
	}
	p.clSum += child.clSum
	p.mergedChildren += 1 + child.mergedChildren
}

// lookup finds oid's entry in this transaction or any ancestor
// (read-your-writes through the nesting chain).
func (tx *Txn) lookup(oid object.ID) (*objEntry, *Txn) {
	for t := tx; t != nil; t = t.parent {
		if e, ok := t.entries[oid]; ok {
			return e, t
		}
	}
	return nil, nil
}

// myCL is the transaction's remote contention level: the sum of the local
// CLs (reported by owners) of every object the transaction chain holds.
func (tx *Txn) myCL() int {
	sum := 0
	for t := tx; t != nil; t = t.parent {
		sum += t.clSum
	}
	return sum
}

// Read returns the transaction's view of oid, fetching it from its owner
// on first access. The returned value is the transaction's working copy:
// do not mutate it — use Write or Update to change the object.
func (tx *Txn) Read(ctx context.Context, oid object.ID) (object.Value, error) {
	if e, _ := tx.lookup(oid); e != nil {
		return e.val, nil
	}
	if err := tx.fetchMany(ctx, []object.ID{oid}, sched.Read); err != nil {
		return nil, err
	}
	return tx.entries[oid].val, nil
}

// ReadMany returns the transaction's view of every oid, resolving the
// objects the chain has not accessed yet in bulk: grouped by owner and
// fetched with one KindRetrieve round trip per owner, all owners in parallel
// (fetchMany). Results are parallel to oids.
func (tx *Txn) ReadMany(ctx context.Context, oids []object.ID) ([]object.Value, error) {
	miss := tx.unopened(oids)
	if err := tx.fetchMany(ctx, miss, sched.Read); err != nil {
		return nil, err
	}
	out := make([]object.Value, len(oids))
	for i, oid := range oids {
		e, _ := tx.lookup(oid)
		out[i] = e.val
	}
	return out, nil
}

// unopened returns the IDs among oids this chain has not accessed yet, sorted
// (the order groupByOwner keeps within an owner's batch) and without repeats.
func (tx *Txn) unopened(oids []object.ID) []object.ID {
	var miss []object.ID
	for _, oid := range oids {
		if e, _ := tx.lookup(oid); e == nil {
			miss = append(miss, oid)
		}
	}
	sortIDs(miss)
	return slices.Compact(miss)
}

// Write buffers a new value for oid, fetching the object first if this
// transaction chain has not accessed it yet (the dataflow model moves the
// object to the writer).
func (tx *Txn) Write(ctx context.Context, oid object.ID, val object.Value) error {
	if e, holder := tx.lookup(oid); e != nil {
		if holder == tx {
			e.val = val
			e.dirty = true
			return nil
		}
		// Copy-on-write into this nesting level so an abort of this inner
		// transaction leaves the ancestor's view intact.
		tx.entries[oid] = &objEntry{val: val, ver: e.ver, dirty: true, created: e.created, inherited: true}
		return nil
	}
	if err := tx.fetchMany(ctx, []object.ID{oid}, sched.Write); err != nil {
		return err
	}
	e := tx.entries[oid]
	e.val = val
	e.dirty = true
	return nil
}

// Update applies fn to a private copy of the object's current value and
// writes the result back. fn must return the value to store. An object the
// chain has not accessed yet is fetched for writing, as Write fetches it.
func (tx *Txn) Update(ctx context.Context, oid object.ID, fn func(object.Value) object.Value) error {
	if err := tx.fetchMany(ctx, tx.unopened([]object.ID{oid}), sched.Write); err != nil {
		return err
	}
	e, _ := tx.lookup(oid)
	return tx.Write(ctx, oid, fn(e.val.Copy()))
}

// Create buffers a brand-new object. It becomes visible to other
// transactions when the top-level transaction commits. Object IDs must be
// unique cluster-wide; colliding creates surface as a commit error.
func (tx *Txn) Create(oid object.ID, val object.Value) error {
	if e, _ := tx.lookup(oid); e != nil {
		return fmt.Errorf("stm: create %q: already accessed in this transaction", oid)
	}
	tx.entries[oid] = &objEntry{val: val, dirty: true, created: true}
	return nil
}

// ID returns the root transaction ID shared by the nesting chain.
func (tx *Txn) ID() uint64 { return tx.id }

// convertErr maps infrastructure errors on the hot path to transaction
// aborts (retried), while letting cancellation and shutdown surface as-is.
func (tx *Txn) convertErr(ctx context.Context, err error, cause AbortCause) error {
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	var ae *abortError
	if errors.As(err, &ae) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &abortError{target: tx.root, cause: cause}
}

// fetched is one object copy received in a retrieve reply or a hand-off
// push, with the clock its owner reported alongside.
type fetched struct {
	oid        object.ID
	val        object.Value
	ver        object.Version
	remoteCL   int
	ownerClock uint64
}

// park is one enqueued entry: its hand-off push comes on ch, or not by until.
type park struct {
	oid     object.ID
	ch      chan pushMsg
	backoff time.Duration
	until   time.Time
}

// holdings is what a root attempt holds (Txn.holdings): the copies its
// Prefetch calls fetched, and its commit locks.
type holdings struct {
	copies map[object.ID]fetched // made by the first Prefetch that stores one
	// locked is every object the attempt holds commit-locked, each on this
	// node, by the node its lock was taken at (its old owner, or this node):
	// the announced write set, then the writes its commit locks. They cannot
	// change until the commit publishes them or Runtime.Atomic releases
	// them (releaseLocks).
	locked map[object.ID]transport.NodeID
}

// Prefetch announces objects the transaction — usually its inner
// transactions — will open, so their retrieves go out in one wave instead of
// each waiting for the access that needs it. It is best effort and returns
// once that wave is in: the root holds the copies outside every read set. The
// level that opens an object adopts the held copy as if its reply had just
// arrived: forwarding, abort attribution and partial abort happen then, at
// that level. With sched.Read an owner leaves a commit-locked object alone
// (the transaction's own request will meet that conflict).
//
// With sched.Write the objects are the root's write set, announced once,
// before any access, with the locking retrieve (lockWave): each owner
// commit-locks the ones it holds for the attempt, all or nothing, and hands
// them here, so the commit neither locks nor validates them and a held copy
// is never dropped, revalidated or used up. When any owner could not lock
// its batch, the batches that did lock are released here, unchanged, before
// Prefetch returns, and the copies are plain held copies.
func (tx *Txn) Prefetch(ctx context.Context, oids []object.ID, mode sched.Mode) {
	want := tx.unopened(oids)
	if len(want) == 0 {
		return
	}
	root, p := tx.root, tx.holdings()
	var got []fetched
	if mode == sched.Write {
		// A second announcement must not release what an earlier one locked.
		want = slices.DeleteFunc(want, tx.holdsLock)
		locked := make(map[object.ID]transport.NodeID, len(want))
		var err error
		if got, err = tx.lockWave(ctx, want, locked, nil); err != nil {
			// No transaction holds a lock while it waits: an announcement
			// that did not lock everywhere gives back what it did lock.
			_ = root.releaseLocks(ctx, locked, nil, object.Version{}, nil)
		}
		maps.Copy(p.locked, locked)
	} else {
		got, _, _ = tx.retrieveWaves(ctx, want, mode, true, nil, nil)
	}
	root.rt.metrics.prefetched.Add(uint64(len(got)))
	if len(got) > 0 && p.copies == nil {
		p.copies = make(map[object.ID]fetched, len(got))
	}
	for _, f := range got {
		p.copies[f.oid] = f
	}
}

// lockWave is the locking retrieve, the one way an attempt takes commit
// locks: Prefetch announces its write set with it, and the commit locks the
// writes not announced. It is a prefetch wave whose requests carry the
// attempt's lock identity, so each owner commit-locks the batch it holds, all
// or nothing, at the versions it copies, and hands it here with its queues
// (Runtime.lockAnnounced), where it is installed locked. It returns the
// copies and adds to locked, by owner, the entries that came back locked. An
// entry of oids left unlocked makes it return a lock-failed abort, which the
// caller reads its own way: Prefetch gives back what did lock and carries on
// lazily, the commit aborts. The wave is detached from ctx: an owner that
// served a lock has handed its objects over, so the reply must not be
// abandoned; only the retry budget ends it (a reply lost for good loses the
// objects it carried, as a lost publish reply did). A ctx that ended
// meanwhile is the error, once the locks are in.
func (tx *Txn) lockWave(ctx context.Context, oids []object.ID, locked map[object.ID]transport.NodeID, meter *commitMeter) ([]fetched, error) {
	got, _, err := tx.retrieveWaves(detach(ctx), oids, sched.Write, true, locked, meter)
	switch {
	case err != nil:
	case ctx.Err() != nil:
		err = ctx.Err() // the attempt ended while its locks came in
	case slices.ContainsFunc(oids, func(oid object.ID) bool { _, ok := locked[oid]; return !ok }):
		err = &abortError{target: tx.root, cause: AbortLockFailed}
	}
	return got, err
}

// holdings is the root attempt's one record of what it holds at the owners,
// its lock set made on first use: Prefetch keeps its copies and announced
// locks there, and the commit adds the locks it takes.
func (tx *Txn) holdings() *holdings {
	p := &tx.root.held
	if p.locked == nil {
		p.locked = make(map[object.ID]transport.NodeID)
	}
	return p
}

// holdsLock reports whether the attempt holds oid commit-locked (see
// holdings.locked).
func (tx *Txn) holdsLock(oid object.ID) bool {
	_, ok := tx.root.held.locked[oid]
	return ok
}

// takeHeld splits oids into copies the root's prefetches hold and objects
// still to fetch. A copy is taken, so a retry of the level refetches, and one
// current only as of a clock behind the transaction's start cannot join
// unvalidated (adoptFetched) and is dropped — unless the attempt holds it
// locked: then it cannot have changed, and it stays held for a retry to take
// again.
func (tx *Txn) takeHeld(oids []object.ID) (got []fetched, rest []object.ID) {
	p := &tx.root.held
	if p.copies == nil {
		return nil, oids
	}
	for _, oid := range oids {
		f, ok := p.copies[oid]
		if _, locked := p.locked[oid]; ok && locked {
			got = append(got, f)
			continue
		}
		delete(p.copies, oid)
		if ok && f.ownerClock >= tx.root.start {
			got = append(got, f)
		} else {
			rest = append(rest, oid)
		}
	}
	tx.rt.metrics.prefOpened.Add(uint64(len(got)))
	return got, rest
}

// fetchMany implements Open_Object (Algorithm 2) for every oid at once
// (sorted, distinct, not yet accessed by this chain; a Read or Write passes
// one): copies a prefetch holds are taken, the rest requested from their
// owners (retrieveWaves), an enqueued object is parked — once the waves are
// done — for its scheduler-assigned backoff, waiting for a hand-off push, and
// all copies are adopted under one forwarding step (adoptFetched).
func (tx *Txn) fetchMany(ctx context.Context, oids []object.ID, mode sched.Mode) error {
	if len(oids) == 0 {
		return nil
	}
	rt := tx.rt
	for _, oid := range oids {
		rt.tracer.Emit(trace.Event{Type: trace.EvRetrieve, Tx: tx.id, Oid: oid, Detail: mode.String()})
	}
	held, rest := tx.takeHeld(oids)
	// A waiter still registered when the call returns is abandoned: the
	// push that comes for it later is declined.
	defer func() {
		for _, oid := range rest {
			rt.deregisterWaiter(tx.id, oid)
		}
	}()
	got, parked, err := tx.retrieveWaves(ctx, rest, mode, false, nil, nil)
	if err != nil {
		return err
	}
	got = append(got, held...)

	// Park events are emitted here, at consumption, so they are strictly
	// ordered within the transaction's goroutine (a push can never appear
	// to resolve a park that has not begun).
	for _, p := range parked {
		rt.tracer.Emit(trace.Event{Type: trace.EvPark, Tx: tx.id, Oid: p.oid, A: uint64(p.backoff)})
		timer := time.NewTimer(time.Until(p.until))
		select {
		case msg := <-p.ch:
			timer.Stop()
			rt.deregisterWaiter(tx.id, p.oid)
			rt.tracer.Emit(trace.Event{Type: trace.EvPushRecv, Tx: tx.id, Oid: p.oid})
			rt.locator.NoteOwner(p.oid, msg.Owner)
			got = append(got, fetched{p.oid, msg.Value, msg.Version, msg.RemoteCL, msg.OwnerClock})
		case <-timer.C:
			// Backoff expired before the object arrived: the parent
			// aborts, losing its committed children (paper §IV-B).
			rt.tracer.Emit(trace.Event{Type: trace.EvParkTimeout, Tx: tx.id, Oid: p.oid})
			return &abortError{target: tx.root, cause: AbortQueueTimeout}
		case <-ctx.Done():
			timer.Stop()
			rt.tracer.Emit(trace.Event{Type: trace.EvParkCancel, Tx: tx.id, Oid: p.oid})
			return ctx.Err()
		}
	}
	return tx.adoptFetched(ctx, got)
}

// ownerWave is the one locate–send–chase loop of the steps that ask the
// owners of objects about them: retrieve (locking or not) and validate, both
// a retrieve request and reply. Each wave locates the owners of the pending
// entries and sends every owner ONE request of kind — request(wave, g,
// groups) for the entries g it holds, among the wave's groups — all owners
// in parallel, then hands each reply to
// take for the step's per-entry verdicts. An entry the node no longer holds
// is chased: after Moved the next wave asks where the object went, with no
// directory round trip; after NotOwner the hint is dropped and the next wave
// asks the home. The first error — a lookup, a lost or malformed reply, or
// take's — ends the chase once every reply of its wave has been read; entries
// still pending after maxOwnerHops waves end it with errOwnerHops. Either way
// the step aborts (Txn.convertErr). meter, when non-nil, accounts the lookups
// and requests.
func ownerWave(ctx context.Context, tx *Txn, kind transport.Kind, oids []object.ID, meter *commitMeter,
	request func(wave int, g ownerGroup, groups []ownerGroup) any, take func(g ownerGroup, r retrieveResp) error) error {
	rt := tx.rt
	pending := oids
	for wave := 0; wave < maxOwnerHops && len(pending) > 0; wave++ {
		owners, msgs, err := rt.locator.LocateBatch(ctx, pending)
		meter.wave(msgs)
		if err != nil {
			return err
		}
		groups := groupByOwner(pending, owners)
		calls := make([]cluster.Outcall, len(groups))
		for i, g := range groups {
			calls[i] = cluster.Outcall{To: g.owner, Kind: kind, Payload: request(wave, g, groups)}
		}
		results := rt.ep.Broadcast(ctx, calls)
		meter.wave(len(calls))

		pending = nil
		var first error
		for gi, res := range results {
			g := groups[gi]
			r, ok := res.Body.(retrieveResp)
			switch {
			case res.Err != nil:
			case !ok || len(r.Results) != len(g.oids):
				res.Err = fmt.Errorf("stm: bad reply %T to kind %d", res.Body, kind)
			default:
				res.Err = take(g, r)
				for i, oid := range g.oids {
					switch a := &r.Results[i]; a.Status {
					case statusMoved:
						rt.locator.NoteOwner(oid, a.MovedTo)
					case statusNotOwner:
						rt.locator.InvalidateHint(oid)
					default:
						continue
					}
					pending = append(pending, oid)
				}
			}
			if first == nil {
				first = res.Err
			}
		}
		if first != nil {
			return first
		}
		sortIDs(pending)
	}
	if len(pending) > 0 {
		return errOwnerHops
	}
	return nil
}

// retrieveWaves requests oids from their owners — an owner wave of
// KindRetrieve with the chain's myCL and ETS attached — and returns the
// copies and the entries the owners enqueued. The owner decides per object: a
// copy is kept; a denial aborts the root. A prefetch wave registers no waiter
// (no owner queues it) and reads a denial as "left alone". With locked
// non-nil it is the locking retrieve (lockWave): it asks the owners to lock
// their batches for the attempt (Runtime.lockAnnounced), installs what
// another node handed over locked here (install), and keeps in locked the
// copies that came back locked, by owner. meter, when non-nil, accounts the
// wave into the commit pipeline's tally.
func (tx *Txn) retrieveWaves(ctx context.Context, oids []object.ID, mode sched.Mode, prefetch bool,
	locked map[object.ID]transport.NodeID, meter *commitMeter) (got []fetched, parked []park, err error) {
	rt, root, myCL := tx.rt, tx.root, tx.myCL()
	var lockID uint64
	cause := AbortDenied
	if locked != nil {
		lockID, cause = root.lockID, AbortLockFailed
	}
	counted := -1 // the last wave counted in Metrics.RetrieveWaves
	err = ownerWave(ctx, tx, KindRetrieve, oids, meter,
		func(wave int, g ownerGroup, groups []ownerGroup) any {
			rt.metrics.retrieves.Add(1)
			if g.owner != rt.Self() && wave != counted {
				counted = wave
				rt.metrics.retrieveWaves.Add(1)
			}
			if mode == sched.Read {
				root.readRPCs++
			}
			// Register the waiters before the request so a hand-off push can
			// never race past us.
			for _, oid := range g.oids {
				if !prefetch {
					rt.registerWaiter(tx.id, oid)
				}
			}
			var taking []object.ID
			if locked != nil && g.owner != rt.Self() {
				// Coming here, maybe: this node's hints for them go, so a request
				// served in the wave's window is told NotOwner, not Moved to the
				// node that may be sending them. A refusal puts them back.
				rt.locator.InvalidateHint(g.oids...)
				taking = takenElsewhere(groups, g.owner, rt.Self())
			}
			elapsed := time.Since(root.began)
			remain := root.expected - elapsed
			if remain <= 0 {
				// The estimate is overrun, so it no longer says what is left.
				// Guess this attempt's running time again, never more than a
				// quarter of the estimate: the owner parks the request that
				// long, so the guess must rest on a time measured here.
				remain = min(root.expected/4, time.Since(root.attemptBegan))
				if remain <= 0 {
					remain = 50 * time.Microsecond
				}
			}
			return retrieveReq{TxID: tx.id, Mode: mode, MyCL: myCL, Elapsed: elapsed, Remain: remain,
				Prefetch: prefetch, LockID: lockID, Oids: g.oids, Taking: taking}
		},
		func(g ownerGroup, r retrieveResp) error {
			// What a remote node's answers cost or brought: a copy, or a hop.
			var far uint64
			if g.owner != rt.Self() {
				far = 1
			}
			// What this reply's locks brought here, installed: this node's
			// shard or hint names it, and every other node hears of it on
			// its next message from here (cc.Service.Moved).
			var took []object.ID
			defer func() { _ = rt.moved(took, rt.Self(), root.lockID) }()
			for i := range r.Results {
				res, oid := &r.Results[i], g.oids[i]
				if locked != nil && !r.Locked && far == 1 && !res.Status.notHere() {
					rt.locator.NoteOwner(oid, g.owner) // refused: the owner keeps it
				}
				switch {
				case res.Status == statusOK:
					rt.metrics.remoteCopies.Add(far)
					rt.deregisterWaiter(tx.id, oid)
					val := res.Value
					if locked != nil && r.Locked {
						locked[oid] = g.owner
						if far == 1 {
							val = tx.install(oid, res)
							took = append(took, oid)
						}
					}
					got = append(got, fetched{oid, val, res.Version, res.RemoteCL, r.OwnerClock})
				case res.Status.notHere():
					rt.metrics.staleHops.Add(far)
					rt.deregisterWaiter(tx.id, oid)
				case res.Status == statusEnqueued && res.Backoff > 0:
					parked = append(parked, park{oid, rt.waiter(tx.id, oid), res.Backoff, time.Now().Add(res.Backoff)})
				case res.Status == statusDenied && prefetch:
				default: // denied, or enqueued with no time to wait
					return &abortError{target: root, cause: AbortDenied}
				}
			}
			return nil
		})
	switch {
	case errors.Is(err, cc.ErrUnknownObject):
		return nil, nil, err // application-level error, not retryable
	case err != nil:
		// A lookup or request lost to the network, or an object that keeps
		// moving, is transient: abort and retry rather than failing the
		// whole Atomic call.
		return nil, nil, tx.convertErr(ctx, err, cause)
	}
	return got, parked, nil
}

// takenElsewhere lists what a locking wave's groups ask remote owners other
// than owner to hand over: the request to owner names them
// (retrieveReq.Taking).
func takenElsewhere(groups []ownerGroup, owner, self transport.NodeID) []object.ID {
	var ids []object.ID
	for _, g := range groups {
		if g.owner != owner && g.owner != self {
			ids = append(ids, g.oids...)
		}
	}
	return ids
}

// install installs one object a locking retrieve brought here, locked for
// the attempt, with the queue that came with it, and returns the
// transaction's own copy of its value (the store keeps the one it got).
func (tx *Txn) install(oid object.ID, res *retrieveResult) object.Value {
	rt := tx.rt
	rt.policy.AdoptQueue(oid, res.Queue) // nothing reads it before the install
	rt.store.InstallLocked(oid, res.Value, res.Version, tx.root.lockID)
	return res.Value.Copy()
}

// adoptFetched records the copies one fetchMany received at this nesting
// level, under a single transactional-forwarding step to the newest version
// among them. Each copy is current as of its owner's clock (serveRetrieve's
// cut), which is at or above the start it was requested at (the request
// carried this node's clock), so a batch of versions no newer than the start
// joins as it is. A copy whose owner reported at least the newest version is
// current as of it and joins after the step; a copy from an owner that
// reported less joins before, so the step revalidates it together with the
// chain — which also carries this node's (merged) clock to that owner,
// keeping every owner the transaction has read from at or above its start
// clock.
func (tx *Txn) adoptFetched(ctx context.Context, got []fetched) error {
	var newest uint64
	for i := range got {
		newest = max(newest, got[i].ver.Clock)
	}
	record := func(f *fetched) {
		tx.rt.tracer.Emit(trace.Event{Type: trace.EvRetrieveOK, Tx: tx.id, Oid: f.oid, A: f.ver.Clock})
		tx.entries[f.oid] = &objEntry{val: f.val, ver: f.ver}
		tx.clSum += f.remoteCL
	}
	current := got[:0]
	for i := range got {
		if got[i].ownerClock < newest {
			record(&got[i])
		} else {
			current = append(current, got[i])
		}
	}
	if err := tx.forward(ctx, newest); err != nil {
		return err
	}
	for i := range current {
		record(&current[i])
	}
	return nil
}

// forward implements TFA's transactional forwarding: when the transaction
// observes a clock ahead of its start time — the version of a fetched copy
// (adoptFetched), this node's own clock at an inner commit — it revalidates
// its read set and, if intact, advances its start time; a stale entry aborts
// the innermost level holding it.
func (tx *Txn) forward(ctx context.Context, clock uint64) error {
	root := tx.root
	if clock <= root.start {
		return nil
	}
	if err := tx.validateChain(ctx, nil); err != nil {
		return err
	}
	tx.rt.tracer.Emit(trace.Event{Type: trace.EvForward, Tx: tx.id, A: root.start, B: clock})
	root.start = clock
	return nil
}

// validateChain re-checks every fetched entry along the nesting chain
// against its owner's current version, one batch message per owner — except
// the entries the attempt holds locked, which cannot have changed (and which
// an owner would answer as stale: it denies a validation every locked
// entry). A stale entry aborts the innermost transaction holding it (closed
// nesting partial abort) — when several entries are stale, the outermost
// affected level wins, since its abort subsumes the others. meter, when
// non-nil, accounts the messages of the commit's early validation.
func (tx *Txn) validateChain(ctx context.Context, meter *commitMeter) error {
	// Per object, the level its staleness aborts and that level's depth.
	type holder struct {
		level *Txn
		depth int
	}
	holders := make(map[object.ID]holder)
	depth := 0
	for t := tx; t != nil; t = t.parent {
		for oid, e := range t.entries {
			h := holder{t, depth}
			if e.inherited {
				// The version was observed by an ancestor; retrying this
				// level alone would re-read the same doomed snapshot.
				h = holder{tx.root, 1 << 30}
			}
			if prev, seen := holders[oid]; e.created || seen && prev.depth >= h.depth || tx.holdsLock(oid) {
				continue
			}
			holders[oid] = h
		}
		depth++
	}
	if len(holders) == 0 {
		return nil
	}
	oids := make([]object.ID, 0, len(holders))
	for oid := range holders {
		oids = append(oids, oid)
	}
	sortIDs(oids)

	stale, err := tx.checkVersions(ctx, oids, meter)
	if err != nil {
		return tx.convertErr(ctx, err, AbortValidation)
	}
	target := holder{depth: -1}
	for _, oid := range stale {
		if h := holders[oid]; h.depth > target.depth {
			target = h
		}
	}
	if target.level != nil {
		return &abortError{target: target.level, cause: AbortValidation}
	}
	return nil
}

// checkVersions asks, in an owner wave of KindCheckVersionBatch, whether the
// version this chain holds of each of oids (distinct, fetched, none locked by
// the attempt) is still current, and returns the ones that are not. The
// request is a prefetch retrieve (Runtime.handleValidate): an entry is stale
// when its owner's copy has another version, or when the owner denies it
// because another transaction holds it commit-locked, so its new version is
// on the way. meter, when non-nil, accounts the messages and waves into the
// commit pipeline's tally.
func (tx *Txn) checkVersions(ctx context.Context, oids []object.ID, meter *commitMeter) (stale []object.ID, err error) {
	err = ownerWave(ctx, tx, KindCheckVersionBatch, oids, meter,
		func(_ int, g ownerGroup, _ []ownerGroup) any {
			return retrieveReq{TxID: tx.id, Mode: sched.Read, Prefetch: true, Oids: g.oids}
		},
		func(g ownerGroup, r retrieveResp) error {
			for i, oid := range g.oids {
				res := &r.Results[i]
				if e, _ := tx.lookup(oid); res.Status == statusDenied || res.Status == statusOK && !res.Version.Equal(e.ver) {
					stale = append(stale, oid)
				}
			}
			return nil
		})
	return stale, err
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
