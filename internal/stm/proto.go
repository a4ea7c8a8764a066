// Package stm implements the TFA (Transactional Forwarding Algorithm)
// D-STM engine with closed nesting, per the HyFlow design the paper builds
// on. See Runtime for the node-side engine and Txn for the transaction API.
package stm

import (
	"time"

	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
)

// Message kinds 10–29 are reserved for the STM protocol. Kinds 11, 12 and
// 14 (the retired per-object check/acquire/commit RPCs) and 20 and 21 (the
// retired MVCC snapshot reads) are reserved: never reuse them, an old peer
// may still send them, and bench/layers.go classifies by number.
const (
	// KindRetrieve is Open_Object's request to an object owner: every
	// object one transaction wants from that node, in one round trip.
	KindRetrieve transport.Kind = 10
	// KindRelease drops commit locks after a failed commit.
	KindRelease transport.Kind = 13
	// KindPush hands an object to an enqueued requester (one-way).
	KindPush transport.Kind = 15
	// KindDecline tells an owner the pushed requester is gone (one-way).
	KindDecline transport.Kind = 16
	// KindAcquireBatch commit-locks a whole per-owner slice of the write
	// set in one round trip (owner-grouped commit pipeline).
	KindAcquireBatch transport.Kind = 17
	// KindCheckVersionBatch validates a per-owner slice of read-set
	// entries in one round trip.
	KindCheckVersionBatch transport.Kind = 18
	// KindCommitObjectBatch is the publish wave: it migrates a per-owner
	// slice of the write set to the committer and tells the receiver — an
	// old owner, a home, or both — where everything the commit moved went.
	KindCommitObjectBatch transport.Kind = 19
)

// retrieveReq is Open_Object's wire request to one owner: the transaction
// ID, the requester's contention level (myCL), its ETS execution-time
// stamps carried as durations (elapsed = ETS.r−ETS.s, remaining =
// ETS.c−ETS.r), and every object the transaction wants from that node (a
// Read or Write asks for one). The owner takes the scheduling decision per
// object — except that a Prefetch request's commit-locked objects are
// answered statusDenied with nothing observed, scheduled or queued. A
// nonzero LockID is a write set announced with write intent: the owner first
// tries to commit-lock every entry it holds for LockID, all or nothing
// (Runtime.lockAnnounced), unless a release by LockID overtook it there.
type retrieveReq struct {
	TxID     uint64
	Mode     sched.Mode
	MyCL     int
	Elapsed  time.Duration
	Remain   time.Duration
	Prefetch bool
	LockID   uint64
	Oids     []object.ID
}

// retrieveResult is one object's disposition, parallel to the request Oids.
type retrieveResult struct {
	// Status is statusOK, statusDenied, statusEnqueued or the not-here answer.
	Status status
	// Value and Version are set when Status == statusOK.
	Value   object.Value
	Version object.Version
	// RemoteCL is the object's local contention level at the owner; the
	// requester accumulates it into its myCL.
	RemoteCL int
	// Backoff is the enqueue wait budget when Status == statusEnqueued.
	Backoff time.Duration
	// MovedTo is the node this one surrendered the object to, set when
	// Status == statusMoved.
	MovedTo transport.NodeID
}

// retrieveResp answers a retrieve. OwnerClock is the owner's TFA clock for
// the forwarding check; every statusOK copy is current as of it (see
// handleRetrieve). Locked reports that every statusOK copy is commit-locked
// for the request's LockID; when false, no entry was locked.
type retrieveResp struct {
	Results    []retrieveResult
	OwnerClock uint64
	Locked     bool
}

// status is one entry's answer in a reply of an owner wave (retrieve,
// validate, acquire). statusNotOwner and statusMoved are the one "not here"
// answer all three share (Runtime.notHere); the requester chases it
// (ownerWave). Retrieve's values keep their wire numbers 0–4.
type status uint8

const (
	// statusOK: retrieve — a copy; validate — still current; acquire —
	// lockable (locked when the batch was applied).
	statusOK status = iota
	// statusDenied: retrieve — the scheduler denied the request.
	statusDenied
	// statusEnqueued: retrieve — queued; a hand-off push will follow.
	statusEnqueued
	// statusNotOwner: this node does not hold the object and has no record
	// of where it went; the requester asks the home directory.
	statusNotOwner
	// statusMoved: this node gave the object away, to MovedTo.
	statusMoved
	// statusStale: validate, acquire — the version moved on (for validate,
	// also: another transaction holds the commit lock).
	statusStale
	// statusBusy: acquire — another transaction holds the commit lock.
	statusBusy
)

// notHere reports whether s is the "not here" answer.
func (s status) notHere() bool { return s == statusNotOwner || s == statusMoved }

// answer is one entry's answer in a validate or acquire reply: the status,
// and where the object went when it is statusMoved — what retrieveResult
// carries beside its copy.
type answer struct {
	Status  status
	MovedTo transport.NodeID
}

// releaseReq unlocks objects after a failed commit, after an announcement
// that did not lock everywhere, or, with the publish wave, announced objects
// the commit did not write.
type releaseReq struct {
	Oids []object.ID
	TxID uint64
}

// ---------------------------------------------------------------------------
// Owner-grouped batch messages. The commit pipeline partitions a
// transaction's write and read sets by owner and sends ONE message per
// owner per phase, so a commit touching k objects on m owners costs O(m)
// rounds instead of O(k). Every batch reply carries per-object results, so
// one failed entry aborts the commit precisely (innermost attribution is
// preserved on the requester side) while its sibling entries roll back.

// verEntry is one (object, expected version) pair of a batch.
type verEntry struct {
	Oid object.ID
	Ver object.Version
}

// verBatchReq is one owner's slice of an acquire or a validation for TxID.
// As KindAcquireBatch the owner commit-locks every entry at its version, all
// or nothing against its store; as KindCheckVersionBatch it checks that each
// entry is still current (TxID's own locks do not invalidate it).
type verBatchReq struct {
	TxID    uint64
	Entries []verEntry
}

// answersResp answers a verBatchReq entry by entry, in request order:
// statusOK, statusStale, statusBusy (acquire only) or the not-here answer.
type answersResp struct {
	Results []answer
}

// applied reports whether the acquire batch this answers took its locks.
// The owner locks all or nothing (Store.LockBatch), so it did exactly when
// every entry answered statusOK; otherwise no entry is locked there.
func (r answersResp) applied() bool {
	for _, a := range r.Results {
		if a.Status != statusOK {
			return false
		}
	}
	return true
}

// ownerReply is a reply of an owner wave as the wave reads it: one answer
// per entry of the request, in request order.
type ownerReply interface {
	entries() int
	at(i int) answer
}

func (r retrieveResp) entries() int { return len(r.Results) }
func (r retrieveResp) at(i int) answer {
	return answer{Status: r.Results[i].Status, MovedTo: r.Results[i].MovedTo}
}
func (r answersResp) entries() int    { return len(r.Results) }
func (r answersResp) at(i int) answer { return r.Results[i] }

// commitObjBatchReq is the publish wave's one message to a node: surrender
// Oids (the receiver's slice of the write set, none when it is reached only
// as a home) to NewOwner, and note that Moved — every object the commit
// brings to NewOwner — went there (cc.Service.Moved: the directory entry of
// an object homed at the receiver, an owner hint for the rest).
type commitObjBatchReq struct {
	TxID     uint64
	NewOwner transport.NodeID
	Oids     []object.ID
	Moved    []object.ID
}

// commitObjBatchResult is one entry's migration outcome: the requester
// queue surrendered with the object, or a per-entry error (empty = ok) so
// one failed entry does not poison its siblings.
type commitObjBatchResult struct {
	Queue []sched.Request
	Err   string
}

// commitObjBatchResp carries per-entry outcomes, parallel to the request
// Oids, and the receiver's directory error for Moved (empty = ok).
type commitObjBatchResp struct {
	Results []commitObjBatchResult
	DirErr  string
}

// pushMsg hands a committed object to an enqueued requester. Owner is the
// node now owning the object (where its commit lock will be taken next).
type pushMsg struct {
	Oid     object.ID
	TxID    uint64 // destination transaction
	Value   object.Value
	Version object.Version
	Owner   transport.NodeID
	// OwnerClock for forwarding at the receiver.
	OwnerClock uint64
	RemoteCL   int
}

// declineMsg tells the owner that the pushed transaction no longer exists;
// the owner forwards the object to the next queued requester.
type declineMsg struct {
	Oid object.ID
}
