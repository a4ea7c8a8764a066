// Package cc implements the distributed cache-coherence (CC) protocol of
// the dataflow D-STM model: a home-directory object locator.
//
// Every object has a home node, chosen by hashing its ID over the cluster.
// The home tracks the object's single current owner (the node holding the
// one writable copy). The two properties the paper requires of the CC
// protocol hold by construction:
//
//  1. a read/write request reaches a node holding a valid copy in a finite
//     number of hops (requester → home → owner), and
//  2. at any time only one copy of the object is registered as writable.
//
// Ownership moves to the committing transaction's node on every write
// commit; the committer's publish wave tells the home — and every other node
// it reaches — where the objects went (Moved). Requesters keep a local owner
// hint cache; a stale hint is detected by the node it names, which answers
// where the object went (followed without the home) or that it does not know
// (refreshed from the home).
package cc

import (
	"context"
	"fmt"
	"sync"

	"dstm/internal/cluster"
	"dstm/internal/object"
	"dstm/internal/transport"
)

// Message kinds 1–9 are reserved for the directory protocol. Kinds 1 and 2
// (the retired single-object lookup and register; a batch of one is the only
// shape) and 3 and 6 (the retired single-object and batch updates; a
// migration reaches the home in the committer's publish message, see Moved)
// are reserved: never reuse them.
const (
	// One message carries every object of a request that is homed at the
	// same directory node.
	KindLookupBatch   transport.Kind = 4
	KindRegisterBatch transport.Kind = 5
)

// lookupResp is one object's owner; Known is false for unregistered objects.
type lookupResp struct {
	Owner transport.NodeID
	Known bool
}

// lookupBatchReq asks a home node for the owners of several objects.
type lookupBatchReq struct{ Oids []object.ID }

// lookupBatchResp carries per-object results, parallel to the request.
type lookupBatchResp struct{ Results []lookupResp }

// registerBatchReq registers several newly created objects, all homed at
// the receiving node and all owned by Owner. Tx, when non-zero, identifies
// the creating transaction so a re-register from the same transaction (a
// commit retried after its reply was lost) is idempotent while a genuine
// duplicate create is still rejected.
type registerBatchReq struct {
	Oids  []object.ID
	Owner transport.NodeID
	Tx    uint64
}

// batchErrResp carries per-object errors parallel to a batch request; an
// empty string is success. One failed entry must not mask its siblings'
// outcomes, so the handler never fails the whole RPC for an entry error.
type batchErrResp struct{ Errs []string }

func init() {
	transport.RegisterPayload(lookupBatchReq{})
	transport.RegisterPayload(lookupBatchResp{})
	transport.RegisterPayload(registerBatchReq{})
	transport.RegisterPayload(batchErrResp{})
}

// HomeOf returns the home (directory) node of an object in a cluster of
// size n.
func HomeOf(id object.ID, n int) transport.NodeID {
	if n <= 0 {
		return 0
	}
	return transport.NodeID(id.Hash() % uint64(n))
}

// ErrUnknownObject is reported (as a RemoteError) when the home has no
// record of the object.
var ErrUnknownObject = fmt.Errorf("cc: unknown object")

// Service is one node's directory shard plus its client-side locator with
// owner-hint cache.
type Service struct {
	ep   *cluster.Endpoint
	size int

	mu     sync.Mutex
	owners map[object.ID]transport.NodeID // directory shard: objects homed here
	regTx  map[object.ID]uint64           // transaction that registered each object
	hints  map[object.ID]transport.NodeID // locator cache: last known owners
}

// NewService creates the directory service for this node and registers its
// protocol handlers on ep. size is the total number of nodes.
func NewService(ep *cluster.Endpoint, size int) *Service {
	s := &Service{
		ep:     ep,
		size:   size,
		owners: make(map[object.ID]transport.NodeID),
		regTx:  make(map[object.ID]uint64),
		hints:  make(map[object.ID]transport.NodeID),
	}
	ep.Handle(KindLookupBatch, s.handleLookupBatch)
	ep.Handle(KindRegisterBatch, s.handleRegisterBatch)
	return s
}

func (s *Service) handleLookupBatch(_ transport.NodeID, payload any) (any, error) {
	req, ok := payload.(lookupBatchReq)
	if !ok {
		return nil, fmt.Errorf("cc: bad lookup batch payload %T", payload)
	}
	resp := lookupBatchResp{Results: make([]lookupResp, len(req.Oids))}
	s.mu.Lock()
	for i, oid := range req.Oids {
		owner, known := s.owners[oid]
		resp.Results[i] = lookupResp{Owner: owner, Known: known}
	}
	s.mu.Unlock()
	return resp, nil
}

func (s *Service) handleRegisterBatch(_ transport.NodeID, payload any) (any, error) {
	req, ok := payload.(registerBatchReq)
	if !ok {
		return nil, fmt.Errorf("cc: bad register batch payload %T", payload)
	}
	resp := batchErrResp{Errs: make([]string, len(req.Oids))}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, oid := range req.Oids {
		if existing, dup := s.owners[oid]; dup {
			if existing == req.Owner && req.Tx != 0 && s.regTx[oid] == req.Tx {
				continue // idempotent re-register by the same transaction
			}
			resp.Errs[i] = fmt.Sprintf("cc: object %q already registered to node %d", oid, existing)
			continue
		}
		s.owners[oid] = req.Owner
		if req.Tx != 0 {
			s.regTx[oid] = req.Tx
		}
	}
	return resp, nil
}

// Home returns the home node of id in this cluster.
func (s *Service) Home(id object.ID) transport.NodeID { return HomeOf(id, s.size) }

// Locate returns the current owner of id: LocateBatch of one.
func (s *Service) Locate(ctx context.Context, id object.ID) (transport.NodeID, error) {
	owners, _, err := s.LocateBatch(ctx, []object.ID{id})
	return owners[id], err
}

// known is what this node can say about id's owner without a message: the
// directory entry when the object is homed here (only those are in owners;
// authoritative, so a hint is not consulted), else the hint. s.mu is held.
func (s *Service) known(id object.ID) (transport.NodeID, bool) {
	if owner, ok := s.owners[id]; ok {
		return owner, true
	}
	owner, ok := s.hints[id]
	return owner, ok
}

// InvalidateHint drops the cached owner for id (after a "not owner" reply).
func (s *Service) InvalidateHint(id object.ID) {
	s.mu.Lock()
	delete(s.hints, id)
	s.mu.Unlock()
}

// Relocate invalidates the hint and locates id again: the home's answer.
func (s *Service) Relocate(ctx context.Context, id object.ID) (transport.NodeID, error) {
	s.InvalidateHint(id)
	return s.Locate(ctx, id)
}

// NoteOwner records an authoritative owner hint learned from the protocol
// (e.g. an object push naming its new owner).
func (s *Service) NoteOwner(id object.ID, owner transport.NodeID) {
	s.mu.Lock()
	s.hints[id] = owner
	s.mu.Unlock()
}

// Register announces a newly created object owned by owner to its home.
func (s *Service) Register(ctx context.Context, id object.ID, owner transport.NodeID) error {
	return s.RegisterTx(ctx, id, owner, 0)
}

// RegisterTx registers id like Register, tagging the registration with the
// creating transaction so a retried commit (whose earlier register reply was
// lost) can re-register idempotently. tx 0 means strict one-shot semantics.
// It is RegisterBatchTx of one.
func (s *Service) RegisterTx(ctx context.Context, id object.ID, owner transport.NodeID, tx uint64) error {
	_, err := s.RegisterBatchTx(ctx, []object.ID{id}, owner, tx)
	return err
}

// ---------------------------------------------------------------------------
// Batched client methods. Each groups its objects by home node and issues
// one message per home, in parallel (toHomes), so a commit touching k objects
// homed on m nodes costs m messages instead of k. Each returns the number of
// messages it sent so the commit pipeline can account msgs/commit.

// toHomes sends every home node of ids ONE message of kind — req(the ids
// homed there) — all homes in parallel, and hands each reply to take with
// the ids it answers for. It returns the number of messages sent and the
// first error: a lost message, or take's.
func (s *Service) toHomes(ctx context.Context, ids []object.ID, kind transport.Kind,
	req func(ids []object.ID) any, take func(ids []object.ID, body any) error) (int, error) {
	byHome := make(map[transport.NodeID][]object.ID)
	for _, id := range ids {
		home := s.Home(id)
		byHome[home] = append(byHome[home], id)
	}
	calls := make([]cluster.Outcall, 0, len(byHome))
	groups := make([][]object.ID, 0, len(byHome))
	for home, oids := range byHome {
		calls = append(calls, cluster.Outcall{To: home, Kind: kind, Payload: req(oids)})
		groups = append(groups, oids)
	}
	var firstErr error
	for gi, res := range s.ep.Broadcast(ctx, calls) {
		err := res.Err
		if err == nil {
			err = take(groups[gi], res.Body)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return len(calls), firstErr
}

// LocateBatch resolves the owners of every id, answering what this node
// knows (see known) and asking the homes of the rest. It returns the owner
// map and the number of lookup messages sent. Unknown objects surface as an
// ErrUnknownObject-wrapped error; transport failures surface as-is.
func (s *Service) LocateBatch(ctx context.Context, ids []object.ID) (map[object.ID]transport.NodeID, int, error) {
	out := make(map[object.ID]transport.NodeID, len(ids))
	var miss []object.ID
	s.mu.Lock()
	for _, id := range ids {
		if owner, ok := s.known(id); ok {
			out[id] = owner
		} else {
			miss = append(miss, id)
		}
	}
	s.mu.Unlock()
	if len(miss) == 0 {
		return out, 0, nil
	}
	n, err := s.toHomes(ctx, miss, KindLookupBatch,
		func(ids []object.ID) any { return lookupBatchReq{Oids: ids} },
		func(ids []object.ID, body any) error {
			resp, ok := body.(lookupBatchResp)
			if !ok || len(resp.Results) != len(ids) {
				return fmt.Errorf("cc: bad lookup batch reply %T", body)
			}
			var err error
			for i, r := range resp.Results {
				if !r.Known {
					if err == nil {
						err = fmt.Errorf("%w: %q", ErrUnknownObject, ids[i])
					}
					continue
				}
				s.NoteOwner(ids[i], r.Owner)
				out[ids[i]] = r.Owner
			}
			return err
		})
	return out, n, err
}

// RegisterBatchTx registers every id as created by transaction tx and owned
// by owner, one message per home node, folding the per-entry error strings
// of each reply into the first error. It returns the number of messages sent
// — even on error, so callers can account partial fan-outs.
func (s *Service) RegisterBatchTx(ctx context.Context, ids []object.ID, owner transport.NodeID, tx uint64) (int, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	n, err := s.toHomes(ctx, ids, KindRegisterBatch,
		func(ids []object.ID) any { return registerBatchReq{Oids: ids, Owner: owner, Tx: tx} },
		func(ids []object.ID, body any) error {
			resp, ok := body.(batchErrResp)
			if !ok || len(resp.Errs) != len(ids) {
				return fmt.Errorf("cc: bad batch reply %T", body)
			}
			for i, msg := range resp.Errs {
				if msg != "" {
					return fmt.Errorf("cc: %q: %s", ids[i], msg)
				}
			}
			return nil
		})
	if err != nil {
		return n, err
	}
	for _, id := range ids {
		s.NoteOwner(id, owner)
	}
	return n, nil
}

// Moved records, at this node, that a commit brought ids to owner — what the
// committer's publish wave tells every node it reaches, and the committer
// itself. The directory entry of an id homed here is rewritten (an
// unregistered one is the error returned, its siblings still applied); any
// other id gets an owner hint.
func (s *Service) Moved(ids []object.ID, owner transport.NodeID) error {
	var firstErr error
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		_, registered := s.owners[id]
		switch {
		case s.Home(id) != s.ep.Self():
			s.hints[id] = owner
		case registered:
			s.owners[id] = owner
			delete(s.regTx, id)
		case firstErr == nil:
			firstErr = fmt.Errorf("cc: update for unregistered object %q", id)
		}
	}
	return firstErr
}
