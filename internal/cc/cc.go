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
// Ownership moves to the committing transaction's node with its commit lock:
// the old owner records where the object went, the committer records it for
// itself, and the committer's homes wave tells every other home, naming
// everything its locks moved (Moved). Requesters keep a local owner
// hint cache; a stale hint is detected by the node it names, which answers
// from this record where the object went (followed without the home) or
// that it does not know (refreshed from the home).
//
// Every message a node sends another also carries the objects the sender
// took (Moved naming it) since it last wrote there and still holds, and the
// receiver keeps them as owner hints: a node the commit did not reach learns
// of a move from the committer's next message to it instead of from a chase.
// Hints stay advisory — a wrong one costs one hop — so a check of the
// directory asks the homes (AskHomes).
package cc

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"dstm/internal/cluster"
	"dstm/internal/object"
	"dstm/internal/transport"
)

// Message kinds 1–9 are reserved for the directory protocol. Kinds 1 and 2
// (the retired single-object lookup and register; a batch of one is the only
// shape) and 3 and 6 (the retired single-object and batch updates; a
// migration reaches the home with the lock or in the committer's homes
// message, see Moved)
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
// the receiving node and all owned by Owner.
type registerBatchReq struct {
	Oids  []object.ID
	Owner transport.NodeID
}

// ownerHints rides beside a message's payload (Service.gossip): its sender
// took and holds every object of Oids.
type ownerHints struct{ Oids []object.ID }

// batchErrResp carries per-object errors parallel to a batch request; an
// empty string is success. One failed entry must not mask its siblings'
// outcomes, so the handler never fails the whole RPC for an entry error.
type batchErrResp struct{ Errs []string }

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

// maxTook caps each peer's list of the objects this node took: a peer this
// node has not written to for longer hears of the last maxTook only.
const maxTook = 64

// Service is one node's directory shard plus its client-side locator with
// owner-hint cache.
type Service struct {
	ep   *cluster.Endpoint
	size int

	mu     sync.Mutex
	owners map[object.ID]transport.NodeID // directory shard: objects homed here
	hints  map[object.ID]transport.NodeID // locator cache: last known owners
	// The objects this node took (logTook), the last maxTook of ntook in a
	// ring, and per peer the ntook of this node's last message to it: peer
	// p's list is the entries logged since sent[p].
	took  [maxTook]object.ID
	ntook uint64
	sent  []uint64
}

// NewService creates the directory service for this node, registers its
// protocol handlers on ep and installs its gossip as ep's piggyback. size is
// the total number of nodes.
func NewService(ep *cluster.Endpoint, size int) *Service {
	s := &Service{
		ep:     ep,
		size:   size,
		owners: make(map[object.ID]transport.NodeID),
		hints:  make(map[object.ID]transport.NodeID),
		sent:   make([]uint64, size),
	}
	ep.Handle(KindLookupBatch, s.handleLookupBatch)
	ep.Handle(KindRegisterBatch, s.handleRegisterBatch)
	ep.SetPiggyback(s.gossip, s.heard)
	return s
}

// logTook logs that this node took ids — registered them, or a commit
// installed them here — so each other node hears of them on the next message
// this node sends it. s.mu is held.
func (s *Service) logTook(ids []object.ID) {
	for _, id := range ids {
		s.took[s.ntook%maxTook] = id
		s.ntook++
	}
}

// gossip is the piggyback of a message to peer to: its list drained, keeping
// the objects this node still names itself the owner of; nil when none are
// left. An empty list costs no allocation.
func (s *Service) gossip(to transport.NodeID) any {
	self := s.ep.Self()
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(to) < 0 || int(to) >= len(s.sent) || s.sent[to] == s.ntook {
		return nil
	}
	var held []object.ID
	for i := max(s.sent[to], s.ntook-min(s.ntook, maxTook)); i < s.ntook; i++ {
		id := s.took[i%maxTook]
		if owner, ok := s.known(id); ok && owner == self && !slices.Contains(held, id) {
			held = append(held, id)
		}
	}
	s.sent[to] = s.ntook
	if len(held) == 0 {
		return nil
	}
	return ownerHints{Oids: held}
}

// heard keeps what a message from node from carried as owner hints: from
// holds each object (Hint).
func (s *Service) heard(from transport.NodeID, p any) {
	if h, ok := p.(ownerHints); ok {
		s.Hint(h.Oids, from)
	}
}

// Hint points this node's owner hints for ids at owner, which holds or is
// taking each of them. An object homed here is left to the directory shard,
// which is authoritative, and one this node names itself the owner of is
// left too: it hears of its own departures from the commit that takes it.
func (s *Service) Hint(ids []object.ID, owner transport.NodeID) {
	self := s.ep.Self()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if held, ok := s.hints[id]; s.Home(id) != self && (!ok || held != self) {
			s.hints[id] = owner
		}
	}
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
			resp.Errs[i] = fmt.Sprintf("cc: object %q already registered to node %d", oid, existing)
			continue
		}
		s.owners[oid] = req.Owner
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

// Known is what this node can say about id's owner without a message (see
// known).
func (s *Service) Known(id object.ID) (transport.NodeID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.known(id)
}

// Homed returns the ids this node's directory shard has an entry for.
func (s *Service) Homed() []object.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]object.ID, 0, len(s.owners))
	for id := range s.owners {
		ids = append(ids, id)
	}
	return ids
}

// InvalidateHint drops the cached owners for ids (after a "not owner"
// reply, or before a lock request that may bring them here).
func (s *Service) InvalidateHint(ids ...object.ID) {
	s.mu.Lock()
	for _, id := range ids {
		delete(s.hints, id)
	}
	s.mu.Unlock()
}

// Relocate asks id's home for its owner, whatever the hint says: AskHomes of
// one.
func (s *Service) Relocate(ctx context.Context, id object.ID) (transport.NodeID, error) {
	owners, _, err := s.AskHomes(ctx, []object.ID{id})
	return owners[id], err
}

// NoteOwner records an authoritative owner hint learned from the protocol
// (e.g. an object push naming its new owner).
func (s *Service) NoteOwner(id object.ID, owner transport.NodeID) {
	s.mu.Lock()
	s.hints[id] = owner
	s.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Batched client methods. Each groups its objects by home node and issues
// one message per home, in parallel (toHomes), so a commit touching k objects
// homed on m nodes costs m messages instead of k. Each returns the number of
// messages it sent so the commit pipeline can account msgs/commit.

// toHomes sends every home node of ids ONE message of kind — req(the ids
// homed there) — all homes in parallel, and hands each reply to take with
// the ids it answers for. It returns the number of messages sent and the
// first error in call order, except that a failed call (a lost message, or
// any error of take's but an unknown object) outranks an unknown object: a
// caller may take an unknown object as an answer, never a failed call.
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
		if firstErr == nil || err != nil && errors.Is(firstErr, ErrUnknownObject) && !errors.Is(err, ErrUnknownObject) {
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
	asked, n, err := s.AskHomes(ctx, miss)
	maps.Copy(out, asked)
	return out, n, err
}

// AskHomes looks up the owners of every id at their homes, one lookup per
// home and all at once, and notes each answer as an owner hint. It never
// answers from a hint, so it is the directory's own answer: what a check of
// the directory must read, since a hint can be refilled by any message. It
// returns the owner map and the number of lookup messages sent. Unknown
// objects surface as an ErrUnknownObject-wrapped error; transport failures
// surface as-is.
func (s *Service) AskHomes(ctx context.Context, ids []object.ID) (map[object.ID]transport.NodeID, int, error) {
	out := make(map[object.ID]transport.NodeID, len(ids))
	n, err := s.toHomes(ctx, ids, KindLookupBatch,
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

// RegisterBatch registers every id as newly created and owned by owner,
// one message per home node, all at once. It returns the ids their homes
// refused (registered already), the number of messages sent — even on
// error, so callers can account partial fan-outs — and the first error: the
// first refusal, or a failed call, whose ids may or may not be registered.
// Each id a home accepted is noted as owned by owner, and logged as taken
// when owner is this node, whatever its siblings' outcome.
func (s *Service) RegisterBatch(ctx context.Context, ids []object.ID, owner transport.NodeID) (refused []object.ID, n int, err error) {
	if len(ids) == 0 {
		return nil, 0, nil
	}
	var registered []object.ID
	n, err = s.toHomes(ctx, ids, KindRegisterBatch,
		func(ids []object.ID) any { return registerBatchReq{Oids: ids, Owner: owner} },
		func(ids []object.ID, body any) error {
			resp, ok := body.(batchErrResp)
			if !ok || len(resp.Errs) != len(ids) {
				return fmt.Errorf("cc: bad batch reply %T", body)
			}
			var err error
			for i, msg := range resp.Errs {
				if msg == "" {
					registered = append(registered, ids[i])
					continue
				}
				refused = append(refused, ids[i])
				if err == nil {
					err = fmt.Errorf("cc: %q: %s", ids[i], msg)
				}
			}
			return err
		})
	for _, id := range registered {
		s.NoteOwner(id, owner)
	}
	if owner == s.ep.Self() {
		s.mu.Lock()
		s.logTook(registered)
		s.mu.Unlock()
	}
	return refused, n, err
}

// Moved records, at this node, that a commit lock brought ids to owner —
// what the old owner records when its lock hands them over, the committer
// when it installs them, and each home its homes wave reaches. The
// directory entry of an id homed here is rewritten (an unregistered one is
// the error returned, its siblings still applied); any other id gets an
// owner hint. When owner is this node the ids are also logged for gossip, so
// call it only once they can be served here: a peer sent here earlier would
// be answered NotOwner.
func (s *Service) Moved(ids []object.ID, owner transport.NodeID) error {
	var firstErr error
	s.mu.Lock()
	defer s.mu.Unlock()
	if owner == s.ep.Self() {
		s.logTook(ids)
	}
	for _, id := range ids {
		_, registered := s.owners[id]
		switch {
		case s.Home(id) != s.ep.Self():
			s.hints[id] = owner
		case registered:
			s.owners[id] = owner
		case firstErr == nil:
			firstErr = fmt.Errorf("cc: update for unregistered object %q", id)
		}
	}
	return firstErr
}
