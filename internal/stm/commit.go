package stm

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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
// (retrieve, validate, publish, release) orders its messages through here.
func groupByOwner(oids []object.ID, owners map[object.ID]transport.NodeID) []ownerGroup {
	byOwner := make(map[transport.NodeID][]object.ID)
	for _, oid := range oids {
		byOwner[owners[oid]] = append(byOwner[owners[oid]], oid)
	}
	groups := make([]ownerGroup, 0, len(byOwner))
	for o, ids := range byOwner {
		groups = append(groups, ownerGroup{owner: o, oids: ids})
	}
	slices.SortFunc(groups, func(a, b ownerGroup) int { return cmp.Compare(a.owner, b.owner) })
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
//  1. commit-lock every written object at its owner with the locking
//     retrieve (lockWave) — from this moment retrieve requests for those
//     objects conflict and flow through the transactional scheduler — and
//     check that none changed since it was read; the announced write set
//     (Prefetch with sched.Write) was locked by its own wave already;
//  2. validate the read set (early validation): every entry the attempt
//     does not hold locked, through validateChain;
//  3. install created objects (locked) and register them with their homes;
//  4. commit point: tick the local TFA clock, producing the new version;
//  5. publish every written or created object: update in place when this
//     node already owns it, otherwise migrate ownership here (adopting the
//     old owner's requester queue) with the home directory updated in the
//     same wave, which also releases the announced objects the commit did
//     not write;
//  6. hand freshly committed objects to queued requesters (RTS hand-off).
//
// Every lock the commit takes joins the attempt's lock set (holdings.locked),
// which Runtime.Atomic releases unless the publish wave took it over.
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

	var writes, creates []object.ID
	for oid, e := range tx.entries {
		switch {
		case e.created:
			creates = append(creates, oid)
		case e.dirty:
			writes = append(writes, oid)
		}
	}
	// Read-only transactions commit without further validation: TFA's
	// forwarding kept their snapshot consistent as of tx.start (every
	// retrieve reply is a clock-consistent cut, see handleRetrieve). The
	// commit costs zero messages; the attempt's data-path read RPCs are
	// charged to the read-path counters (Metrics.ReadMsgs).
	if len(writes) == 0 && len(creates) == 0 {
		rt.metrics.readOnlyCommits.Add(1)
		rt.metrics.readMsgs.Add(tx.readRPCs)
		return nil
	}
	sortIDs(writes)
	sortIDs(creates)

	var meter commitMeter
	p := tx.holdings()

	// Phase 1: lock the rest of the write set at the owners, one locking
	// retrieve per owner; a copy whose version moved since the read aborts.
	got, err := tx.lockWave(ctx, slices.DeleteFunc(slices.Clone(writes), tx.holdsLock), p.locked, &meter)
	if slices.ContainsFunc(got, func(f fetched) bool { return !f.ver.Equal(tx.entries[f.oid].ver) }) {
		err = &abortError{target: tx, cause: AbortValidation}
	}
	if err != nil {
		return err
	}

	// Phase 2: early validation of the read set, one batch per owner.
	if err := tx.validateChain(ctx, &meter); err != nil {
		return err
	}

	// Phase 3: install creations locked, then register them, one batch per
	// home. Bail out on a cancelled context before the registrations; then
	// run them detached so cancellation cannot leave a subset registered.
	if len(creates) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, oid := range creates {
			rt.store.InstallLocked(oid, tx.entries[oid].val.Copy(), object.Version{}, tx.lockID)
		}
		_, msgs, err := rt.locator.RegisterBatch(detach(ctx), creates, rt.Self())
		meter.wave(msgs)
		if err != nil {
			// ID collision or directory failure: roll the creations back.
			for _, oid := range creates {
				_ = rt.store.Remove(oid, tx.lockID)
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("stm: create: %w", err)
		}
		for _, oid := range creates {
			p.locked[oid] = rt.Self()
		}
		writes = append(writes, creates...)
	}

	// Phase 4: commit point. The publish wave takes over the lock set.
	newVer := object.Version{Clock: rt.clock.Tick(), Node: int32(rt.Self())}
	locked := p.locked
	p.locked = nil

	// Phase 5+6: publish writes and serve queued requesters. Past the
	// commit point cancellation must not interrupt publication or release.
	if err := tx.publishAll(detach(ctx), writes, locked, newVer, &meter); err != nil {
		return err
	}

	rt.metrics.commitMsgs.Add(meter.msgs)
	rt.metrics.commitRounds.Add(meter.rounds)
	rt.stats.RecordCommit(tx.name, time.Since(tx.began))
	return nil
}

// releaseLocks sends every owner in locked one unlock for what it holds, in
// one wave: what an attempt still holds when it ends (Runtime.Atomic), or an
// announcement that did not lock everywhere (Prefetch). It runs detached from
// ctx, so a cancelled attempt still releases.
func (tx *Txn) releaseLocks(ctx context.Context, locked map[object.ID]transport.NodeID) {
	if calls := tx.releaseCalls(locked); len(calls) > 0 {
		// Best effort; the locks die with the runtime if the peer is gone.
		tx.rt.ep.Broadcast(detach(ctx), calls)
	}
}

// releaseCalls is one KindRelease per owner in locked, for what it holds.
func (tx *Txn) releaseCalls(locked map[object.ID]transport.NodeID) []cluster.Outcall {
	if len(locked) == 0 {
		return nil
	}
	oids := make([]object.ID, 0, len(locked))
	for oid := range locked {
		oids = append(oids, oid)
	}
	sortIDs(oids)
	groups := groupByOwner(oids, locked)
	calls := make([]cluster.Outcall, len(groups))
	for i, g := range groups {
		calls[i] = cluster.Outcall{To: g.owner, Kind: KindRelease, Payload: releaseReq{Oids: g.oids, TxID: tx.lockID}}
	}
	return calls
}

// publishAll installs the committed write set, creations included, at its
// new home (this node) in one wave: ONE message to every node that owns an
// object the commit brings here or is the home of one, asking it to
// surrender its entries and naming everything that moves (commitObjBatchReq).
// A migrated object is installed here — so can be served, locked or migrated
// onward — only once every node of the wave has answered: a later
// migration's directory update cannot overtake this one. Locally owned
// writes and creations update in place and cost no messages. A refused entry
// goes to refused, and a failed local update is recorded; either way its
// siblings are still published (the paper's model: reliable delivery), and
// the first error is returned. locked is the attempt's lock set, consumed
// here: what is left once the writes are taken out — announced, not written
// — is released, unchanged, in the same wave.
func (tx *Txn) publishAll(ctx context.Context, writes []object.ID, locked map[object.ID]transport.NodeID,
	newVer object.Version, meter *commitMeter) error {
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
	for _, oid := range writes {
		delete(locked, oid)
	}
	for _, oid := range moving {
		// A home that owns none of them is in the wave too, with no entries.
		home := rt.locator.Home(oid)
		if _, in := surrender[home]; !in && home != rt.Self() {
			surrender[home] = nil
		}
	}

	// Coming back: a request in the wave's window is told NotOwner, not
	// Moved to the node that is sending them here.
	rt.store.Arriving(moving)
	calls := make([]cluster.Outcall, 0, len(surrender))
	for node, oids := range surrender {
		calls = append(calls, cluster.Outcall{To: node, Kind: KindCommitObjectBatch,
			Payload: commitObjBatchReq{TxID: tx.lockID, NewOwner: rt.Self(), Oids: oids, Moved: moving}})
	}
	slices.SortFunc(calls, func(a, b cluster.Outcall) int { return cmp.Compare(a.To, b.To) })
	published := len(calls)
	calls = append(calls, tx.releaseCalls(locked)...)
	var results []cluster.CallResult
	if len(calls) > 0 {
		results = rt.ep.Broadcast(ctx, calls)[:published]
		meter.wave(len(calls))
	}

	if len(moving) > 0 {
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
		rt.locator.Took(migrated) // installed: every other node may now hear of them
		if dirOK {
			for _, oid := range migrated {
				rt.handOff(oid)
			}
		}
	}

	for _, oid := range local {
		if err := rt.store.UpdateCommitted(oid, tx.entries[oid].val.Copy(), newVer, tx.lockID); err != nil {
			fail(err)
			continue
		}
		rt.handOff(oid)
	}
	return pubErr
}

// refused handles the entries of a publish that owner did not surrender:
// the publish call failed (its retry budget ran out), or owner refused an
// entry, which only a defect can cause, since only a lock's holder frees
// it. Their homes — told in the same wave that the objects were coming
// here — are pointed back at owner with the same message, nothing to
// surrender, and then their commit locks are freed there so the objects are
// not wedged (in that order: once unlocked an object can move on, and its
// next directory update must not be overwritten by this one). Best effort:
// one wave to the homes, one message per home, then the release.
func (tx *Txn) refused(ctx context.Context, owner transport.NodeID, oids []object.ID) {
	if len(oids) == 0 {
		return
	}
	homes := make(map[object.ID]transport.NodeID, len(oids))
	for _, oid := range oids {
		homes[oid] = tx.rt.locator.Home(oid)
	}
	groups := groupByOwner(oids, homes)
	calls := make([]cluster.Outcall, len(groups))
	for i, g := range groups {
		calls[i] = cluster.Outcall{To: g.owner, Kind: KindCommitObjectBatch,
			Payload: commitObjBatchReq{TxID: tx.lockID, NewOwner: owner, Moved: g.oids}}
	}
	tx.rt.ep.Broadcast(ctx, calls)
	_, _ = tx.rt.ep.Call(ctx, owner, KindRelease, releaseReq{Oids: oids, TxID: tx.lockID})
}

// detach returns a context that survives cancellation of ctx. RPCs issued
// on it still fall under cluster.DefaultCallTimeout, so cleanup cannot hang
// forever.
func detach(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx)
}

func sortIDs(ids []object.ID) { slices.Sort(ids) }
