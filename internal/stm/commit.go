package stm

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dstm/internal/cluster"
	"dstm/internal/object"
	"dstm/internal/transport"
)

// ownerGroup is one owner's slice of an owner-partitioned ID set, in
// deterministic order: IDs in input order within the group, groups sorted by
// owner.
type ownerGroup struct {
	owner transport.NodeID
	oids  []object.ID
}

// groupByOwner partitions oids by their owner, returning groups sorted by
// owner ID so batch fan-outs are deterministic. Every batched protocol step
// (retrieve, validate, acquire, publish) orders its messages through here.
func groupByOwner(oids []object.ID, owners map[object.ID]transport.NodeID) []ownerGroup {
	byOwner := make(map[transport.NodeID][]object.ID)
	for _, oid := range oids {
		byOwner[owners[oid]] = append(byOwner[owners[oid]], oid)
	}
	groups := make([]ownerGroup, 0, len(byOwner))
	for o, ids := range byOwner {
		groups = append(groups, ownerGroup{owner: o, oids: ids})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].owner < groups[j].owner })
	return groups
}

// commitMeter tallies the protocol messages and parallel waves one commit
// pipeline run costs; flushed into Metrics only when the commit succeeds.
type commitMeter struct {
	msgs   uint64
	rounds uint64
}

// wave records one parallel fan-out of n messages. A no-op when n is 0
// (fully local phases cost nothing) or on a nil meter (validation reused
// outside the commit pipeline).
func (cm *commitMeter) wave(n int) {
	if cm == nil || n == 0 {
		return
	}
	cm.msgs += uint64(n)
	cm.rounds++
}

// commit drives the top-level (root) commit protocol:
//
//  1. commit-lock every written object at its owner (version CAS) — from
//     this moment retrieve requests for those objects conflict and flow
//     through the transactional scheduler;
//  2. validate the read-only set (early validation);
//  3. install created objects (locked) and register them with their homes;
//  4. commit point: tick the local TFA clock, producing the new version;
//  5. publish every written object: update in place when this node already
//     owns it, otherwise migrate ownership here (adopting the old owner's
//     requester queue) with the home directory updated in the same wave;
//  6. hand freshly committed objects to queued requesters (RTS hand-off).
//
// Every phase is owner-grouped: the write and read sets are partitioned by
// owner (IDs kept in global sortIDs order within and across groups) and each
// phase sends ONE batch message per owner, fanned out in parallel through
// cluster.Endpoint.Broadcast. A commit touching k objects spread over m
// owners therefore costs O(m) message rounds instead of O(k) — the
// messages and rounds are counted into Metrics (CommitMsgs/CommitRounds).
//
// Like the paper's model we assume reliable message delivery: a transport
// failure between steps 4 and 5 is surfaced but cannot be rolled back.
func (tx *Txn) commit(ctx context.Context) error {
	if tx.parent != nil {
		panic("stm: commit called on a nested transaction")
	}
	rt := tx.rt

	var writes, reads, creates []object.ID
	for oid, e := range tx.entries {
		switch {
		case e.created:
			creates = append(creates, oid)
		case e.dirty:
			writes = append(writes, oid)
		default:
			reads = append(reads, oid)
		}
	}
	// Read-only transactions commit without further validation: TFA's
	// forwarding kept their snapshot consistent as of tx.start (every
	// retrieve reply is a clock-consistent cut, see handleRetrieve). The
	// commit costs zero messages; the attempt's data-path read RPCs are
	// charged to the read-path counters (Metrics.ReadMsgs).
	if len(writes) == 0 && len(creates) == 0 {
		rt.metrics.readOnlyCommits.Add(1)
		rt.metrics.readMsgs.Add(tx.readRPCs.Load())
		return nil
	}
	sortIDs(writes)
	sortIDs(reads)
	sortIDs(creates)

	var meter commitMeter

	// Phase 1: lock the write set at the owners, one batch per owner.
	//
	// Lock release and post-commit publishing must complete even when the
	// transaction's own context has just been cancelled — otherwise a
	// worker shut down mid-commit leaves orphaned commit locks (or a
	// half-published write set) behind. Run them on a detached context.
	locked := make(map[object.ID]transport.NodeID, len(writes))
	abortUnlock := func() { tx.releaseLocks(detach(ctx), locked) }

	if err := tx.acquireAll(ctx, writes, locked, &meter); err != nil {
		abortUnlock()
		return err
	}

	// Phase 2: early validation of the read set, one batch per owner.
	if err := tx.validateMany(ctx, reads, &meter); err != nil {
		abortUnlock()
		return err
	}

	// Phase 3: install creations locked, then register them, one batch per
	// home. Bail out on a cancelled context before the registrations; then
	// run them detached so cancellation cannot leave a subset registered.
	if len(creates) > 0 {
		if err := ctx.Err(); err != nil {
			abortUnlock()
			return err
		}
		for _, oid := range creates {
			e := tx.entries[oid]
			rt.store.InstallLocked(oid, e.val.Copy(), object.Version{}, tx.lockID)
		}
		msgs, err := rt.locator.RegisterBatchTx(detach(ctx), creates, rt.Self(), tx.lockID)
		meter.wave(msgs)
		if err != nil {
			// ID collision or directory failure: roll the creations back.
			// Registration of the non-colliding entries is harmless — the
			// batch is tagged with tx.lockID, so a retried attempt of the
			// same transaction re-registers them idempotently and a
			// different creator's genuine collision still surfaces.
			for _, oid := range creates {
				_ = rt.store.Remove(oid, tx.lockID)
			}
			abortUnlock()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("stm: create: %w", err)
		}
	}

	// Phase 4: commit point.
	newVer := object.Version{Clock: rt.clock.Tick(), Node: int32(rt.Self())}

	// Phase 5+6: publish writes and serve queued requesters. Past the
	// commit point cancellation must not interrupt publication.
	if err := tx.publishAll(detach(ctx), writes, locked, newVer, &meter); err != nil {
		return err
	}
	for _, oid := range creates {
		e := tx.entries[oid]
		if err := rt.store.UpdateCommitted(oid, e.val.Copy(), newVer, tx.lockID); err != nil {
			return err
		}
		rt.serveQueue(oid, rt.policy.OnRelease(oid))
	}

	rt.metrics.commitMsgs.Add(meter.msgs)
	rt.metrics.commitRounds.Add(meter.rounds)
	rt.stats.RecordCommit(tx.name, time.Since(tx.began))
	return nil
}

// acquireAll commit-locks the write set, one atomic batch per owner, fanned
// out in parallel. Owners apply their batch all-or-nothing, so a batch that
// comes back unapplied left NO locks at that owner; only applied batches
// (and calls whose replies were lost, conservatively) are recorded in
// locked for the abort path to release. Stale owner hints are chased in
// batches too: a "not owner" entry rolls its whole group back, the hint is
// invalidated, and the group's objects re-enter the next wave, hop-bounded.
func (tx *Txn) acquireAll(ctx context.Context, writes []object.ID, locked map[object.ID]transport.NodeID, meter *commitMeter) error {
	if len(writes) == 0 {
		return nil
	}
	rt := tx.rt
	pending := writes
	for hop := 0; hop < maxOwnerHops && len(pending) > 0; hop++ {
		owners, msgs, err := rt.locator.LocateBatch(ctx, pending)
		meter.wave(msgs)
		if err != nil {
			return tx.convertErr(ctx, err, AbortLockFailed)
		}
		groups := groupByOwner(pending, owners)
		calls := make([]cluster.Outcall, len(groups))
		for i, g := range groups {
			req := acquireBatchReq{TxID: tx.lockID, Entries: make([]verEntry, len(g.oids))}
			for j, oid := range g.oids {
				req.Entries[j] = verEntry{Oid: oid, Ver: tx.entries[oid].ver}
			}
			calls[i] = cluster.Outcall{To: g.owner, Kind: KindAcquireBatch, Payload: req}
		}
		results := rt.ep.Broadcast(ctx, calls)
		meter.wave(len(calls))

		var firstErr error
		stale, busy := false, false
		var next []object.ID
		for gi, res := range results {
			g := groups[gi]
			if res.Err != nil {
				// The reply was lost: the batch may still have been applied
				// at the owner, so the abort path must conservatively
				// release the whole group there (the store's refusal
				// markers cover release-before-acquire races).
				for _, oid := range g.oids {
					locked[oid] = g.owner
				}
				if firstErr == nil {
					firstErr = res.Err
				}
				continue
			}
			resp, ok := res.Body.(acquireBatchResp)
			if !ok || len(resp.Results) != len(g.oids) {
				if firstErr == nil {
					firstErr = fmt.Errorf("stm: bad acquire batch reply %T", res.Body)
				}
				continue
			}
			if resp.Applied {
				for _, oid := range g.oids {
					locked[oid] = g.owner
				}
				continue
			}
			// Unapplied: no lock was taken at this owner. Classify the
			// per-entry refusals; pure not-owner groups chase the hint.
			notOwnerOnly := true
			for i, r := range resp.Results {
				switch object.LockResult(r) {
				case object.LockOK:
				case object.LockStale:
					stale, notOwnerOnly = true, false
				case object.LockNotOwner:
					rt.locator.InvalidateHint(g.oids[i])
				default: // LockBusy
					busy, notOwnerOnly = true, false
				}
			}
			if notOwnerOnly {
				// The atomic batch rolled back because of its not-owner
				// entries, so the WHOLE group (including entries that would
				// have locked) must retry against fresh owners.
				next = append(next, g.oids...)
			}
		}
		switch {
		case firstErr != nil:
			return tx.convertErr(ctx, firstErr, AbortLockFailed)
		case stale:
			return &abortError{target: tx, cause: AbortValidation}
		case busy:
			return &abortError{target: tx, cause: AbortLockFailed}
		}
		sortIDs(next)
		pending = next
	}
	if len(pending) > 0 {
		// The objects moved more times than we are willing to chase.
		return &abortError{target: tx, cause: AbortLockFailed}
	}
	return nil
}

// releaseLocks batches unlock requests per owner after a failed commit.
func (tx *Txn) releaseLocks(ctx context.Context, locked map[object.ID]transport.NodeID) {
	byOwner := make(map[transport.NodeID][]object.ID)
	for oid, owner := range locked {
		byOwner[owner] = append(byOwner[owner], oid)
	}
	calls := make([]cluster.Outcall, 0, len(byOwner))
	for owner, oids := range byOwner {
		sortIDs(oids)
		calls = append(calls, cluster.Outcall{To: owner, Kind: KindRelease, Payload: releaseReq{Oids: oids, TxID: tx.lockID}})
	}
	// Best effort; the locks die with the runtime if the peer is gone.
	tx.rt.ep.Broadcast(ctx, calls)
}

// publishAll installs the committed write set at its new home (this node) in
// one wave: ONE message to every node that owns an object the commit brings
// here or is the home of one, asking it to surrender its entries and naming
// everything that moves (commitObjBatchReq). A migrated object is installed
// here — so can be served, locked or migrated onward — only once every node
// of the wave has answered: a later migration's directory update cannot
// overtake this one. Locally owned writes update in place and cost no
// messages. A refused entry goes to refused; its published siblings stay
// published (the paper's model: reliable delivery).
func (tx *Txn) publishAll(ctx context.Context, writes []object.ID, locked map[object.ID]transport.NodeID, newVer object.Version, meter *commitMeter) error {
	if len(writes) == 0 {
		return nil
	}
	rt := tx.rt

	var pubErr error
	fail := func(err error) {
		if pubErr == nil {
			pubErr = err
		}
	}
	var local, moving []object.ID
	surrender := make(map[transport.NodeID][]object.ID) // node of the wave → its entries
	for _, g := range groupByOwner(writes, locked) {
		if g.owner == rt.Self() {
			local = g.oids
			continue
		}
		surrender[g.owner] = g.oids
		moving = append(moving, g.oids...)
	}
	for _, oid := range moving {
		// A home that owns none of them is in the wave too, with no entries.
		home := rt.locator.Home(oid)
		if _, in := surrender[home]; !in && home != rt.Self() {
			surrender[home] = nil
		}
	}

	if len(moving) > 0 {
		calls := make([]cluster.Outcall, 0, len(surrender))
		for node, oids := range surrender {
			calls = append(calls, cluster.Outcall{To: node, Kind: KindCommitObjectBatch,
				Payload: commitObjBatchReq{TxID: tx.lockID, NewOwner: rt.Self(), Oids: oids, Moved: moving}})
		}
		sort.Slice(calls, func(i, j int) bool { return calls[i].To < calls[j].To })
		results := rt.ep.Broadcast(ctx, calls)
		meter.wave(len(calls))

		var migrated []object.ID
		dirOK := true
		for ci, res := range results {
			node, oids := calls[ci].To, surrender[calls[ci].To]
			resp, ok := res.Body.(commitObjBatchResp)
			if res.Err == nil && (!ok || len(resp.Results) != len(oids)) {
				res.Err = fmt.Errorf("bad commit batch reply %T", res.Body)
			}
			if res.Err != nil {
				fail(fmt.Errorf("stm: publish at node %d: %w", node, res.Err))
				dirOK = false
				tx.refused(ctx, node, oids)
				continue
			}
			if resp.DirErr != "" {
				fail(fmt.Errorf("stm: ownership update at node %d: %s", node, resp.DirErr))
				dirOK = false
			}
			var refused []object.ID
			for i, r := range resp.Results {
				if r.Err != "" {
					fail(fmt.Errorf("stm: commit migration of %q: %s", oids[i], r.Err))
					refused = append(refused, oids[i])
					continue
				}
				rt.policy.AdoptQueue(oids[i], r.Queue) // nothing reads it before the install
				migrated = append(migrated, oids[i])
			}
			tx.refused(ctx, node, refused)
		}
		// This node learns what every other node of the wave did — its own
		// directory shard included — and only then holds the objects.
		if err := rt.locator.Moved(migrated, rt.Self()); err != nil {
			fail(fmt.Errorf("stm: ownership update: %w", err))
			dirOK = false
		}
		for _, oid := range migrated {
			rt.store.Install(oid, tx.entries[oid].val.Copy(), newVer)
		}
		if dirOK {
			for _, oid := range migrated {
				rt.serveQueue(oid, rt.policy.OnRelease(oid))
			}
		}
	}

	for _, oid := range local {
		if err := rt.store.UpdateCommitted(oid, tx.entries[oid].val.Copy(), newVer, tx.lockID); err != nil {
			fail(err)
			continue
		}
		rt.serveQueue(oid, rt.policy.OnRelease(oid))
	}
	return pubErr
}

// refused handles the entries of a publish that owner did not surrender:
// their homes — told in the same wave that the objects were coming here — are
// pointed back at owner with the same message, nothing to surrender, and then
// their commit locks are freed there so the objects are not wedged (in that
// order: once unlocked an object can move on, and its next directory update
// must not be overwritten by this one). Best effort, one object at a time.
func (tx *Txn) refused(ctx context.Context, owner transport.NodeID, oids []object.ID) {
	if len(oids) == 0 {
		return
	}
	for _, oid := range oids {
		_, _ = tx.rt.ep.Call(ctx, tx.rt.locator.Home(oid), KindCommitObjectBatch,
			commitObjBatchReq{TxID: tx.lockID, NewOwner: owner, Moved: []object.ID{oid}})
	}
	_, _ = tx.rt.ep.Call(ctx, owner, KindRelease, releaseReq{Oids: oids, TxID: tx.lockID})
}

// detach returns a context that survives cancellation of ctx. RPCs issued
// on it still fall under cluster.DefaultCallTimeout, so cleanup cannot hang
// forever.
func detach(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx)
}

func sortIDs(ids []object.ID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
