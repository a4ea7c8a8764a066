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
// owner ID so batch fan-outs are deterministic. Every owner wave (retrieve,
// locking or not, and validate) orders its messages through here.
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
//  1. commit-lock every written object with the locking retrieve
//     (lockWave), which brings it here, locked, from its owner — from this
//     moment retrieve requests for those objects conflict here and flow
//     through the transactional scheduler — and check that none changed
//     since it was read; the announced write set (Prefetch with sched.Write)
//     was locked by its own wave already;
//  2. validate the read set (early validation): every entry the attempt
//     does not hold locked, through validateChain;
//  3. install created objects (locked) and register them with their homes;
//  4. commit point: tick the local TFA clock, producing the new version;
//  5. publish every written or created object in place, all of them here,
//     once the homes of the objects the locks brought here know where they
//     are (releaseLocks), which also frees the announced objects the commit
//     did not write;
//  6. hand freshly committed objects to queued requesters (RTS hand-off).
//
// Every lock the commit takes joins the attempt's lock set (holdings.locked),
// which Runtime.Atomic releases unless the commit took it over.
//
// Every remote phase is owner-grouped: the write and read sets are
// partitioned by owner (IDs kept in global sortIDs order within and across
// groups) and each phase sends ONE batch message per owner (per home, for
// the homes), fanned out in parallel through cluster.Endpoint.Broadcast. A
// commit touching k objects spread over m owners therefore costs O(m)
// message rounds instead of O(k) — the messages and rounds are counted into
// Metrics (CommitMsgs/CommitRounds).
//
// Like the paper's model we assume reliable message delivery: a transport
// failure past step 4 is surfaced but cannot be rolled back.
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
	// retrieve reply is a clock-consistent cut, see serveRetrieve). The
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

	// Phase 1: lock the rest of the write set, one locking retrieve per
	// owner; a copy whose version moved since the read aborts.
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

	// Phase 4: commit point. The commit takes the lock set over.
	newVer := object.Version{Clock: rt.clock.Tick(), Node: int32(rt.Self())}
	locked := p.locked
	p.locked = nil

	// Phase 5+6: publish writes and serve queued requesters. Past the
	// commit point cancellation must not interrupt publication or release.
	if err := tx.releaseLocks(ctx, locked, writes, newVer, &meter); err != nil {
		return err
	}

	rt.metrics.commitMsgs.Add(meter.msgs)
	rt.metrics.commitRounds.Add(meter.rounds)
	rt.stats.RecordCommit(tx.name, time.Since(tx.began))
	return nil
}

// releaseLocks ends the hold on locked — a lock set of the attempt's, every
// lock of it on this node, by the node it was taken at — and consumes it:
// what an attempt still holds when it ends (Runtime.Atomic), an announcement
// that did not lock everywhere (Prefetch), or, at the commit point, the
// commit's. First the homes learn where the objects the locks brought here
// are (tellHomes); only then is each lock freed here, so a later lock, which
// may take the object on, cannot send its home a directory update that
// overtakes this one: each of writes (all of them in locked) published in
// place at newVer, every other one unchanged, and each handed off. A failed
// update still frees the rest; the first error is returned. It runs
// detached from ctx, so a cancelled attempt still releases.
func (tx *Txn) releaseLocks(ctx context.Context, locked map[object.ID]transport.NodeID, writes []object.ID,
	newVer object.Version, meter *commitMeter) error {
	if len(locked) == 0 {
		return nil
	}
	rt := tx.rt
	err := tx.tellHomes(detach(ctx), locked, meter)
	for _, oid := range writes {
		if uerr := rt.store.UpdateCommitted(oid, tx.entries[oid].val.Copy(), newVer, tx.lockID); uerr != nil && err == nil {
			err = uerr
		}
		delete(locked, oid)
		rt.handOff(oid)
	}
	for oid := range locked {
		rt.store.Unlock(oid, tx.lockID)
		rt.handOff(oid)
	}
	clear(locked)
	return err
}

// tellHomes is the homes wave: ONE message to each home, other than this
// node and the object's old owner (which know already), of an object that
// the locks in locked brought here, naming every object they brought
// (commitObjBatchReq), and none when no such home exists. It returns once
// every home has answered, with the first failed call (a directory error is
// the call's).
func (tx *Txn) tellHomes(ctx context.Context, locked map[object.ID]transport.NodeID, meter *commitMeter) error {
	rt := tx.rt
	var moved []object.ID
	var homes []transport.NodeID
	for oid, from := range locked {
		if from == rt.Self() {
			continue
		}
		moved = append(moved, oid)
		if home := rt.locator.Home(oid); home != rt.Self() && home != from && !slices.Contains(homes, home) {
			homes = append(homes, home)
		}
	}
	if len(homes) == 0 {
		return nil
	}
	sortIDs(moved)
	slices.Sort(homes)
	calls := make([]cluster.Outcall, len(homes))
	for i, home := range homes {
		calls[i] = cluster.Outcall{To: home, Kind: KindCommitObjectBatch,
			Payload: commitObjBatchReq{TxID: tx.lockID, NewOwner: rt.Self(), Moved: moved}}
	}
	results := rt.ep.Broadcast(ctx, calls)
	meter.wave(len(calls))
	for i, res := range results {
		if res.Err != nil {
			return fmt.Errorf("stm: ownership update at node %d: %w", homes[i], res.Err)
		}
	}
	return nil
}

// detach returns a context that survives cancellation of ctx. RPCs issued
// on it still fall under cluster.DefaultCallTimeout, so cleanup cannot hang
// forever.
func detach(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx)
}

func sortIDs(ids []object.ID) { slices.Sort(ids) }
