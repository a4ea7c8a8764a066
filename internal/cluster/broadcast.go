package cluster

import (
	"context"
	"fmt"
	"math"
	"time"

	"dstm/internal/trace"
	"dstm/internal/transport"
)

// Outcall is one destination of a Broadcast: a request kind and payload
// bound for one node.
type Outcall struct {
	To      transport.NodeID
	Kind    transport.Kind
	Payload any
}

// CallResult is one Outcall's outcome: the decoded reply body or the error
// Call would have returned for it.
type CallResult struct {
	Body any
	Err  error
}

// slot is one remote call of a wave.
type slot struct {
	i       int    // index into the wave's calls and results
	corr    uint64 // reused by every retransmission
	attempt int
	backoff time.Duration
	next    time.Time // when to send (again); zero: never
	done    bool
}

// Broadcast sends a wave of calls and waits for all of them, returning
// results in call order. The wave's correlation IDs and floor are issued in
// one critical section, every request leaves from the caller's goroutine,
// calls addressed to this node then run in process (as Call's do), and the
// replies come back on one channel.
//
// Each call retransmits on its own schedule under the endpoint's
// RetryPolicy, reusing its correlation ID and the wave's floor, so one slow
// or lossy peer delays only its own slot, and the wave costs one round trip
// to the slowest peer. When the context ends or the endpoint closes, the
// slots already answered keep their replies and every open one gets the
// error Call would have returned.
//
// This is the fan-out primitive of the owner-grouped commit pipeline: the
// committer partitions its write/read sets by owner and broadcasts one
// batch per owner, turning O(objects) sequential rounds into O(owners)
// parallel ones.
func (e *Endpoint) Broadcast(ctx context.Context, calls []Outcall) []CallResult {
	results := make([]CallResult, len(calls))
	e.wave(ctx, calls, results)
	return results
}

// wave is Broadcast writing into results, which Call keeps on its stack.
func (e *Endpoint) wave(ctx context.Context, calls []Outcall, results []CallResult) {
	self, rp := e.Self(), e.RetryPolicy()
	runSelf := func() {
		for i, c := range calls {
			if c.To == self {
				results[i] = e.callSelf(ctx, c.Kind, c.Payload)
			}
		}
	}
	var buf [4]slot
	slots := buf[:0]
	for i, c := range calls {
		if c.To != self {
			slots = append(slots, slot{i: i, backoff: rp.BaseBackoff})
		}
	}
	if len(slots) == 0 {
		runSelf()
		return
	}

	// Issue the IDs and read the floor in one critical section: no ID below
	// the floor can then be issued later, so every call below it is over.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		for i := range results {
			results[i].Err = ErrEndpointClosed
		}
		return
	}
	floor := e.corr + 1
	for c := range e.pending {
		floor = min(floor, c)
	}
	replies := make(chan *transport.Message, len(slots)) // room for each slot's one reply
	now := time.Now()
	for k := range slots {
		e.corr++
		slots[k].corr, slots[k].next = e.corr, now // due
		e.pending[e.corr] = replies
	}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		for k := range slots {
			delete(e.pending, slots[k].corr)
		}
		e.mu.Unlock()
	}()

	open := len(slots)
	finish := func(s *slot, r CallResult) {
		s.done, results[s.i] = true, r
		open--
	}
	take := func(m *transport.Message) {
		s := &slots[m.Corr-slots[0].corr]
		c := calls[s.i]
		switch env, ok := m.Payload.(envelope); {
		case s.done:
		case !ok:
			finish(s, CallResult{Err: fmt.Errorf("cluster: malformed reply for %v from node %d", c.Kind, c.To)})
		default:
			finish(s, env.result(c.To))
		}
	}
	// sendDue sends every open slot whose time has come; a slow reply still
	// completes its slot, since every slot listens while it waits.
	sendDue := func() {
		now := time.Now()
		for k := range slots {
			if s := &slots[k]; !s.done && !s.next.IsZero() && !now.Before(s.next) {
				if err := e.transmit(s, calls[s.i], floor, rp, now); err != nil {
					finish(s, CallResult{Err: err})
				}
			}
		}
	}
	// A wave with no caller deadline gives up after DefaultCallTimeout with
	// ErrCallTimeout, so the caller can tell a lost conversation from its
	// own cancellation.
	var giveUp time.Time
	if _, has := ctx.Deadline(); !has {
		giveUp = now.Add(DefaultCallTimeout)
	}

	sendDue()
	runSelf()
	timer := time.NewTimer(math.MaxInt64)
	defer timer.Stop()
	for open > 0 {
		next := giveUp
		for k := range slots {
			if s := &slots[k]; !s.done && !s.next.IsZero() && (next.IsZero() || s.next.Before(next)) {
				next = s.next
			}
		}
		var expire <-chan time.Time
		if !next.IsZero() {
			timer.Reset(time.Until(next))
			expire = timer.C
		}
		var errFor func(Outcall) error
		select {
		case m := <-replies:
			take(m)
			continue
		case <-expire:
			if giveUp.IsZero() || time.Now().Before(giveUp) {
				sendDue()
				continue
			}
			errFor = func(c Outcall) error { return fmt.Errorf("%w: %v to node %d", ErrCallTimeout, c.Kind, c.To) }
		case <-ctx.Done():
			errFor = func(Outcall) error { return ctx.Err() }
		case <-e.done:
			// Close drained the endpoint: no reply can ever arrive.
			errFor = func(Outcall) error { return ErrEndpointClosed }
		}
		for len(replies) > 0 {
			take(<-replies)
		}
		for k := range slots {
			if s := &slots[k]; !s.done {
				finish(s, CallResult{Err: errFor(calls[s.i])})
			}
		}
	}
}

// transmit sends s's request and schedules its next retransmission:
// PerTryTimeout after this send, plus the slot's backoff (doubling up to
// MaxBackoff, ±50% deterministic jitter); none when PerTryTimeout <= 0.
func (e *Endpoint) transmit(s *slot, c Outcall, floor uint64, rp RetryPolicy, now time.Time) error {
	s.attempt++
	s.next = time.Time{}
	// Emit the send event BEFORE handing the message to the transport: the
	// reply can be delivered before Send returns, and its recv event must
	// not precede this send in the node's sequence (a false "unsolicited
	// reply" for the trace checker).
	e.tracer.Load().Emit(trace.Event{Type: trace.EvMsgSend, Peer: c.To, Corr: s.corr, A: uint64(c.Kind)})
	err := e.tr.Send(&transport.Message{
		From:    e.Self(),
		To:      c.To,
		Clock:   e.clock.Now(),
		Kind:    c.Kind,
		Corr:    s.corr,
		Floor:   floor,
		Payload: c.Payload,
	})
	if err != nil {
		return fmt.Errorf("cluster: call %v to node %d: %w", c.Kind, c.To, err)
	}
	if rp.PerTryTimeout > 0 {
		wait := rp.PerTryTimeout
		if s.backoff > 0 {
			wait += jitter(s.backoff, s.corr^uint64(s.attempt)<<32^uint64(e.Self()))
			s.backoff *= 2
			if rp.MaxBackoff > 0 {
				s.backoff = min(s.backoff, rp.MaxBackoff)
			}
		}
		s.next = now.Add(wait)
	}
	return nil
}
