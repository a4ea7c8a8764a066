// Package cluster layers a request/response (RPC) discipline over the raw
// transport: correlation IDs, per-kind handler dispatch, remote error
// propagation, and TFA clock piggybacking (every outgoing message carries
// the node's clock; every incoming message merges into it).
//
// One Endpoint exists per node. Owner-side protocol handlers (directory,
// object retrieval, commit) register themselves by message Kind.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dstm/internal/trace"
	"dstm/internal/transport"
	"dstm/internal/vclock"
)

// RequestHandler serves one RPC kind: it receives the sender and payload
// and returns the reply payload or an error (propagated to the caller as a
// *RemoteError). It runs on the delivery path — the goroutine that delivered
// the request, or the caller's when a node calls itself — and sends its reply
// from there, so it takes NotifyHandler's contract: it returns quickly, never
// calls Call or Broadcast, and never waits on another node. A message for
// another node goes out through Notify.
type RequestHandler func(from transport.NodeID, payload any) (any, error)

// NotifyHandler serves a one-way message kind. It is invoked synchronously
// on the delivery path and must return quickly.
type NotifyHandler func(from transport.NodeID, payload any)

// RemoteError wraps an error string returned by a remote handler.
type RemoteError struct {
	Node transport.NodeID
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote error from node %d: %s", e.Node, e.Msg)
}

// ErrEndpointClosed is returned by calls issued after Close.
var ErrEndpointClosed = errors.New("cluster: endpoint closed")

// ErrCallTimeout is returned when a call exhausts its retry budget (or the
// endpoint-imposed DefaultCallTimeout) without a reply. Unlike a caller
// deadline it signals a lost conversation, not a cancelled one, so the STM
// layer converts it into a transaction abort and retries.
var ErrCallTimeout = errors.New("cluster: call timed out awaiting reply")

// DefaultCallTimeout bounds RPCs whose context carries no deadline, so a
// lost message cannot wedge a transaction forever.
const DefaultCallTimeout = 30 * time.Second

// RetryPolicy controls Call's retransmission behaviour. A retransmission
// reuses the original correlation ID and floor, so the receiver serves each
// call at most once even over a network that drops, duplicates or delays
// messages (see Endpoint).
type RetryPolicy struct {
	// PerTryTimeout is how long one attempt waits for a reply before
	// retransmitting. <= 0 disables retransmission: the single send waits
	// out the full call deadline (the pre-retry behaviour).
	PerTryTimeout time.Duration
	// BaseBackoff is the delay before the first retransmission; it doubles
	// each attempt (with ±50% deterministic jitter) up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// DefaultRetryPolicy is the endpoint's out-of-the-box behaviour: patient
// retransmission bounded by the call deadline. Chaos tests and lossy
// deployments install something far more aggressive via SetRetryPolicy.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		PerTryTimeout: 2 * time.Second,
		BaseBackoff:   10 * time.Millisecond,
		MaxBackoff:    time.Second,
	}
}

// envelope is the wire format for replies.
type envelope struct {
	Err  string
	Body any
}

// dedupEntry is one request's server-side state: in flight until the
// handler returns, then the cached reply that duplicates re-receive.
type dedupEntry struct {
	done bool
	env  envelope
}

// Endpoint is one node's RPC attachment.
//
// It serves each call at most once. Every request carries its sender's
// floor (transport.Message.Floor): the lowest correlation ID among the
// sender's calls still awaiting a reply, read when the call was issued. The
// receiver keeps the highest floor seen from each sender and never serves a
// request below it, because that request's call is over. It remembers every
// request at or above the floor, in flight or with its reply, so a
// duplicate is answered from memory rather than served again; what falls
// below the floor is forgotten.
type Endpoint struct {
	tr    transport.Transport
	clock *vclock.Clock

	retry  atomic.Value // RetryPolicy
	tracer atomic.Pointer[trace.Recorder]

	mu       sync.Mutex
	corr     uint64                             // last correlation ID issued
	pending  map[uint64]chan *transport.Message // calls awaiting a reply; a wave shares one channel
	handlers map[transport.Kind]RequestHandler
	notifies map[transport.Kind]NotifyHandler
	floor    map[transport.NodeID]uint64                 // highest floor seen per sender
	dedup    map[transport.NodeID]map[uint64]*dedupEntry // per sender, requests at or above its floor
	closed   bool
	done     chan struct{} // closed by Close; fails pending calls fast
}

// NewEndpoint wraps tr. The clock is shared with the node's STM runtime so
// messaging and commits advance the same TFA clock.
func NewEndpoint(tr transport.Transport, clock *vclock.Clock) *Endpoint {
	e := &Endpoint{
		tr:       tr,
		clock:    clock,
		pending:  make(map[uint64]chan *transport.Message),
		handlers: make(map[transport.Kind]RequestHandler),
		notifies: make(map[transport.Kind]NotifyHandler),
		floor:    make(map[transport.NodeID]uint64),
		dedup:    make(map[transport.NodeID]map[uint64]*dedupEntry),
		done:     make(chan struct{}),
	}
	e.retry.Store(DefaultRetryPolicy())
	tr.SetHandler(e.onMessage)
	return e
}

// SetRetryPolicy replaces the endpoint's Call retransmission policy. Each
// Call reads the policy once when it starts; in-flight calls keep the
// policy they started with.
func (e *Endpoint) SetRetryPolicy(p RetryPolicy) { e.retry.Store(p) }

// RetryPolicy returns the endpoint's current retransmission policy.
func (e *Endpoint) RetryPolicy() RetryPolicy { return e.retry.Load().(RetryPolicy) }

// SetTracer installs a protocol event recorder on the messaging layer (nil
// disables). Every send and receive is emitted with its correlation ID so
// the trace checker can verify reply correlation.
func (e *Endpoint) SetTracer(tr *trace.Recorder) { e.tracer.Store(tr) }

// Self returns this endpoint's node ID.
func (e *Endpoint) Self() transport.NodeID { return e.tr.Self() }

// Clock returns the node's TFA clock.
func (e *Endpoint) Clock() *vclock.Clock { return e.clock }

// Handle registers the RPC handler for kind. It panics on duplicate
// registration — kinds are a static protocol, so a duplicate is a bug.
func (e *Endpoint) Handle(kind transport.Kind, h RequestHandler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.handlers[kind]; dup {
		panic(fmt.Sprintf("cluster: duplicate handler for %v", kind))
	}
	e.handlers[kind] = h
}

// HandleNotify registers the one-way handler for kind.
func (e *Endpoint) HandleNotify(kind transport.Kind, h NotifyHandler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.notifies[kind]; dup {
		panic(fmt.Sprintf("cluster: duplicate notify handler for %v", kind))
	}
	e.notifies[kind] = h
}

// Call performs a blocking RPC to node `to`: a Broadcast of one. It returns
// the remote reply body, a *RemoteError if the remote handler failed, or a
// local error (context cancellation, closed endpoint, transport failure,
// ErrCallTimeout after the retry budget is spent).
//
// Lost requests and lost replies are retransmitted per the endpoint's
// RetryPolicy with exponential backoff and jitter. Every retransmission
// carries the original correlation ID and floor, so a retried call never
// re-executes its handler, and no copy of the request is served once the
// call has returned.
//
// A node does not send itself messages: a call to Self() runs the handler in
// process (callSelf).
func (e *Endpoint) Call(ctx context.Context, to transport.NodeID, kind transport.Kind, payload any) (any, error) {
	var r [1]CallResult
	e.wave(ctx, []Outcall{{To: to, Kind: kind, Payload: payload}}, r[:])
	return r[0].Body, r[0].Err
}

// callSelf is Call addressed to this node: the handler runs on the caller's
// goroutine and its result comes back with Call's error shapes (a handler
// error or a missing handler is a *RemoteError naming this node). No message
// exists — no correlation ID, dedup entry, trace event or transport Send, so
// no link delay and no fault: what transport.MetricLatency ("self-links cost
// zero") and FaultModel ("self-sends are never faulted") assume.
func (e *Endpoint) callSelf(ctx context.Context, kind transport.Kind, payload any) CallResult {
	e.mu.Lock()
	closed, h := e.closed, e.handlers[kind]
	e.mu.Unlock()
	if closed {
		return CallResult{Err: ErrEndpointClosed}
	}
	if err := ctx.Err(); err != nil {
		return CallResult{Err: err}
	}
	return serve(h, kind, e.Self(), payload).result(e.Self())
}

// serve runs h, the handler registered for kind (nil if none), and wraps its
// outcome as the reply.
func serve(h RequestHandler, kind transport.Kind, from transport.NodeID, payload any) envelope {
	if h == nil {
		return envelope{Err: fmt.Sprintf("no handler for %v", kind)}
	}
	body, err := h(from, payload)
	if err != nil {
		return envelope{Err: err.Error()}
	}
	return envelope{Body: body}
}

// result is the reply env from node as Call returns it.
func (env envelope) result(node transport.NodeID) CallResult {
	if env.Err != "" {
		return CallResult{Err: &RemoteError{Node: node, Msg: env.Err}}
	}
	return CallResult{Body: env.Body}
}

// jitter spreads d by ±50% using a deterministic hash of the call identity,
// decorrelating retransmission storms without a shared RNG.
func jitter(d time.Duration, salt uint64) time.Duration {
	salt += 0x9e3779b97f4a7c15
	salt = (salt ^ (salt >> 30)) * 0xbf58476d1ce4e5b9
	salt = (salt ^ (salt >> 27)) * 0x94d049bb133111eb
	salt ^= salt >> 31
	frac := float64(salt>>11) / (1 << 53) // [0, 1)
	return time.Duration(float64(d) * (0.5 + frac))
}

// Notify sends a one-way message (no reply expected). Addressed to Self() it
// runs the notify handler in process, like callSelf.
func (e *Endpoint) Notify(to transport.NodeID, kind transport.Kind, payload any) error {
	e.mu.Lock()
	closed, h := e.closed, e.notifies[kind]
	e.mu.Unlock()
	if closed {
		return ErrEndpointClosed
	}
	if to == e.Self() {
		if h != nil {
			h(to, payload)
		}
		return nil
	}
	err := e.tr.Send(&transport.Message{
		From:    e.Self(),
		To:      to,
		Clock:   e.clock.Now(),
		Kind:    kind,
		Payload: payload,
	})
	if err == nil {
		e.tracer.Load().Emit(trace.Event{Type: trace.EvMsgSend, Peer: to, A: uint64(kind)})
	}
	return err
}

func (e *Endpoint) onMessage(m *transport.Message) {
	e.clock.Merge(m.Clock)
	if tr := e.tracer.Load(); tr.Enabled() {
		ev := trace.Event{Type: trace.EvMsgRecv, Peer: m.From, Corr: m.Corr, A: uint64(m.Kind)}
		if m.IsReply {
			ev.Detail = "reply"
		}
		tr.Emit(ev)
	}

	if m.IsReply {
		// The first reply ends the call's wait; a duplicate finds no entry
		// and is dropped, so the wave's channel has room for every reply.
		e.mu.Lock()
		ch := e.pending[m.Corr]
		delete(e.pending, m.Corr)
		e.mu.Unlock()
		if ch != nil {
			ch <- m
		}
		return
	}

	if m.Corr != 0 {
		e.mu.Lock()
		if m.Corr < e.floor[m.From] {
			// The call is over: its sender has the reply or has given up,
			// so serving this copy could only repeat the handler's effect.
			e.mu.Unlock()
			return
		}
		served := e.dedup[m.From]
		if m.Floor > e.floor[m.From] {
			e.floor[m.From] = m.Floor
			for c := range served {
				if c < m.Floor {
					delete(e.dedup[m.From], c)
				}
			}
		}
		if ent, seen := served[m.Corr]; seen {
			// A retransmitted (or network-duplicated) request must not
			// re-execute its handler. If the original already replied,
			// resend the cached reply (the first one was evidently lost);
			// if it is still in flight, its completion will reply.
			done, env := ent.done, ent.env
			e.mu.Unlock()
			if done {
				e.reply(m, env)
			}
			return
		}
		if served == nil {
			served = make(map[uint64]*dedupEntry)
			e.dedup[m.From] = served
		}
		ent := &dedupEntry{}
		served[m.Corr] = ent
		h := e.handlers[m.Kind]
		e.mu.Unlock()
		// Served on the delivery path (RequestHandler's contract), so one
		// link's requests are served in the order they arrive.
		env := serve(h, m.Kind, m.From, m.Payload)
		e.mu.Lock()
		ent.done = true
		ent.env = env
		e.mu.Unlock()
		e.reply(m, env)
		return
	}

	e.mu.Lock()
	h := e.notifies[m.Kind]
	e.mu.Unlock()
	if h != nil {
		h(m.From, m.Payload)
	}
}

func (e *Endpoint) reply(req *transport.Message, env envelope) {
	// Best effort: the caller times out if the reply cannot be sent.
	err := e.tr.Send(&transport.Message{
		From:    e.Self(),
		To:      req.From,
		Clock:   e.clock.Now(),
		Kind:    req.Kind,
		Corr:    req.Corr,
		IsReply: true,
		Payload: env,
	})
	if err == nil {
		e.tracer.Load().Emit(trace.Event{
			Type: trace.EvMsgSend, Peer: req.From, Corr: req.Corr, Detail: "reply", A: uint64(req.Kind),
		})
	}
}

// Close shuts the endpoint down and fails all pending calls: every Call
// blocked awaiting a reply returns ErrEndpointClosed promptly instead of
// waiting out its full deadline.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	e.mu.Unlock()
	return e.tr.Close()
}
