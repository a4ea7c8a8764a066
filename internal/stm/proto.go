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
// 14 (the retired per-object check/acquire/commit RPCs), 13 (the retired
// remote release: every lock an attempt holds is on its own node), 17 (the
// retired acquire batch: a commit locks with the locking retrieve) and 20
// and 21 (the retired MVCC snapshot reads) are reserved: never reuse them,
// an old peer may still send them, and bench/layers.go classifies by number.
const (
	// KindRetrieve is Open_Object's request to an object owner: every
	// object one transaction wants from that node, in one round trip.
	KindRetrieve transport.Kind = 10
	// KindPush hands an object to an enqueued requester (one-way).
	KindPush transport.Kind = 15
	// KindDecline tells an owner the pushed requester is gone (one-way).
	KindDecline transport.Kind = 16
	// KindCheckVersionBatch validates a per-owner slice of read-set
	// entries in one round trip: a prefetch retrieve (Runtime.handleValidate)
	// whose copies the requester compares with the versions it read. It
	// keeps its own kind so validation messages are counted apart.
	KindCheckVersionBatch transport.Kind = 18
	// KindCommitObjectBatch is the homes wave (Txn.tellHomes): it tells a
	// home where everything an attempt's locks brought to its node went.
	KindCommitObjectBatch transport.Kind = 19
)

// retrieveReq is Open_Object's wire request to one owner: the transaction
// ID, the requester's contention level (myCL), its ETS execution-time
// stamps carried as durations (elapsed = ETS.r−ETS.s, remaining =
// ETS.c−ETS.r), and every object the transaction wants from that node (a
// Read or Write asks for one). The owner takes the scheduling decision per
// object — except that a Prefetch request's commit-locked objects are
// answered statusDenied with nothing observed, scheduled or queued (a
// validation is one: Txn.checkVersions). A
// nonzero LockID makes it the locking retrieve, the one way to take a commit
// lock (Txn.lockWave): the owner tries to commit-lock every entry it holds
// for LockID, all or nothing, and hands what it locked to the requester
// (Runtime.lockAnnounced). Taking names the objects the same locking wave
// asks other nodes to hand over: an owner that hands its batch over points
// its hints for them at the requester too.
type retrieveReq struct {
	TxID     uint64
	Mode     sched.Mode
	MyCL     int
	Elapsed  time.Duration
	Remain   time.Duration
	Prefetch bool
	LockID   uint64
	Oids     []object.ID
	Taking   []object.ID
}

// retrieveResult is one object's disposition, parallel to the request Oids.
type retrieveResult struct {
	// Status is statusOK, statusDenied, statusEnqueued or the not-here answer.
	Status status
	// Value and Version are set when Status == statusOK; a validation's
	// answer carries the Version only.
	Value   object.Value
	Version object.Version
	// RemoteCL is the object's local contention level at the owner; the
	// requester accumulates it into its myCL.
	RemoteCL int
	// Backoff is the enqueue wait budget when Status == statusEnqueued.
	Backoff time.Duration
	// MovedTo is the owner this node's locator names, set when Status ==
	// statusMoved.
	MovedTo transport.NodeID
	// Queue is the requester queue that left the owner with the object, on
	// an entry a locking retrieve took (retrieveResp.Locked).
	Queue []sched.Request
}

// retrieveResp answers a retrieve. OwnerClock is the owner's TFA clock for
// the forwarding check; every statusOK copy is current as of it (see
// handleRetrieve). Locked reports that every statusOK copy was commit-locked
// for the request's LockID and left the owner for the requester with its
// queue, unless the requester is the owner; when false, no entry was locked.
type retrieveResp struct {
	Results    []retrieveResult
	OwnerClock uint64
	Locked     bool
}

// status is one entry's answer in a retrieve reply. statusNotOwner and
// statusMoved are the "not here" answer; the requester chases it
// (ownerWave). The values keep their wire numbers 0–4; 5 (the retired
// validation's stale answer) and 6 (the retired acquire's busy answer) are
// reserved.
type status uint8

const (
	// statusOK: a copy.
	statusOK status = iota
	// statusDenied: the scheduler denied the request, or a prefetch found
	// the object commit-locked.
	statusDenied
	// statusEnqueued: queued; a hand-off push will follow.
	statusEnqueued
	// statusNotOwner: this node does not hold the object and its locator
	// names no other owner; the requester asks the home directory.
	statusNotOwner
	// statusMoved: this node does not hold the object, and its locator
	// names MovedTo as the owner.
	statusMoved
)

// notHere reports whether s is the "not here" answer.
func (s status) notHere() bool { return s == statusNotOwner || s == statusMoved }

// commitObjBatchReq is the homes wave's one message to a home: Moved —
// every object lock identity TxID brought to NewOwner — went there
// (cc.Service.Moved: the directory entry of an object homed at the
// receiver, an owner hint for the rest).
type commitObjBatchReq struct {
	TxID     uint64
	NewOwner transport.NodeID
	Moved    []object.ID
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
