// Package sched defines the transactional-scheduler plug-in point of the
// D-STM stack and the two baseline policies the paper evaluates against:
//
//   - TFA: no scheduler. A request that conflicts with a validating
//     transaction is denied; the requester aborts and retries immediately.
//   - TFA+Backoff: a proactive-style scheduler. The conflicting requester
//     aborts and backs off (stalls) before restarting, with the backoff
//     derived from the transaction's historical execution time.
//
// The paper's contribution, RTS, implements the same Policy interface in
// package core.
package sched

import (
	"time"

	"dstm/internal/object"
	"dstm/internal/transport"
)

// Mode distinguishes read from write object requests.
type Mode uint8

// Request access modes.
const (
	Read Mode = iota
	Write
)

func (m Mode) String() string {
	if m == Read {
		return "read"
	}
	return "write"
}

// Request describes an object retrieve request as seen by the owner-side
// scheduler. The three ETS timestamps of the paper (start, request,
// expected-commit) travel as two durations so nodes never compare wall
// clocks: Elapsed = ETS.r − ETS.s and ExpectedRemaining = ETS.c − ETS.r.
type Request struct {
	Oid  object.ID
	TxID uint64
	Node transport.NodeID
	Mode Mode

	// MyCL is the requester's remote contention level: the sum of the
	// local CLs of the objects the requesting transaction already holds.
	MyCL int

	Elapsed           time.Duration
	ExpectedRemaining time.Duration
}

// Decision is the owner-side verdict on a conflicting request.
type Decision struct {
	// Enqueue true parks the requester at the owner for up to Backoff,
	// waiting for the object to be handed over; false denies the request
	// (the requester aborts).
	Enqueue bool
	Backoff time.Duration
}

// Policy is the per-node transactional scheduler. Implementations must be
// safe for concurrent use. Methods that manage queues are no-ops for
// policies that never enqueue (the baselines). OnConflict and OnRelease are
// called with the owner's object store locked (object.Store.Read), so a
// decision and the store state it was made on are one critical section:
// they must return quickly, and must not call the store or send a message.
type Policy interface {
	// Name identifies the policy in reports ("RTS", "TFA", "TFA+Backoff").
	Name() string

	// ObserveRequest records a retrieve request by transaction txid against
	// oid for contention accounting and returns the object's current local
	// contention level — the number of distinct transactions that have
	// requested oid in the current window — which the owner reports back
	// to the requester.
	ObserveRequest(oid object.ID, txid uint64) int

	// OnConflict decides the fate of a request that found oid commit-locked.
	OnConflict(req Request) Decision

	// OnRelease is invoked when oid's commit lock is released with the
	// object still owned here, and again when a requester it returned no
	// longer wants the object (it aborted while parked). It returns the
	// queued requesters to hand the object to now: the first write
	// requester, or every queued read requester (reads are mutually
	// compatible, paper §III-B).
	OnRelease(oid object.ID) []Request

	// ExtractQueue removes and returns oid's entire queue; called when
	// ownership migrates so the queue can travel to the new owner.
	ExtractQueue(oid object.ID) []Request

	// AdoptQueue installs a queue received together with ownership.
	AdoptQueue(oid object.ID, reqs []Request)

	// RetryDelay returns how long an aborted transaction should stall
	// before its next attempt (client side). attempt counts from 1.
	RetryDelay(attempt int, profile string) time.Duration
}

// Estimator supplies expected execution times for transaction profiles;
// satisfied by *stats.Table.
type Estimator interface {
	Expect(profile string) time.Duration
}

// QueueDepther is an optional Policy extension: QueueDepth reports how
// many requesters the policy currently has parked across all objects, so
// a driver sampling it sees scheduler-internal queue growth (RTS's
// requester lists) next to its own admission backlog; the repo benchmark
// reports its peak as core.queue_depth_max. All in-tree policies
// implement it; the baselines report 0 (they never enqueue).
type QueueDepther interface {
	QueueDepth() int
}
