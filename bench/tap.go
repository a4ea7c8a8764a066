package main

import (
	"sync"
	"sync/atomic"
	"time"

	"dstm/internal/transport"
)

// maxKind bounds the per-kind counters; the protocol uses kinds 1–21.
const maxKind = 32

// rpcSpan is one request/reply conversation seen from the transport:
// the rpc span runs from the request leaving the client to the reply
// reaching it, and its child serve span from the request reaching the
// server to the reply leaving it. Both share the id (From, Corr). Times
// are offsets from the hub's epoch; 0 means "not seen".
type rpcSpan struct {
	From, To       transport.NodeID
	Corr           uint64
	Kind           transport.Kind
	Op             int // the one operation in flight on From when sent, else -1
	ReqSent        time.Duration
	ReqDelivered   time.Duration
	ReplySent      time.Duration
	ReplyDelivered time.Duration
	Retransmits    int
}

func (s *rpcSpan) answered() bool { return s.ReplyDelivered != 0 }

// rtt is the rpc span's duration: request sent to reply delivered.
func (s *rpcSpan) rtt() time.Duration { return s.ReplyDelivered - s.ReqSent }

// serve is the serve span's duration: the remote handler's time.
func (s *rpcSpan) serve() time.Duration {
	if s.ReqDelivered == 0 || s.ReplySent == 0 {
		return 0
	}
	return s.ReplySent - s.ReqDelivered
}

type rpcKey struct {
	from transport.NodeID
	corr uint64
}

// hub is the state the taps of one cluster share. A timed run only
// counts sends (one atomic add per message); a traced run also pairs
// every request with its reply by (From, Corr).
type hub struct {
	epoch  time.Time
	traced bool

	sent atomic.Int64 // cross-node messages: requests, replies, notifies
	self atomic.Int64 // messages a node addressed to itself (its own directory shard, its own objects)

	// active[node][worker] is the id+1 of the operation that worker is
	// serving, 0 when idle; an rpc names its parent operation only when
	// exactly one slot of the sending node is set.
	active [nodes][workersPerNode]atomic.Int64

	mu          sync.Mutex
	byKind      [maxKind]int64 // cross-node messages per kind
	byKey       map[rpcKey]*rpcSpan
	spans       []*rpcSpan // in order of first send
	retransmits int64
}

func newHub(traced bool) *hub {
	return &hub{epoch: time.Now(), traced: traced, byKey: make(map[rpcKey]*rpcSpan)}
}

func (h *hub) now() time.Duration { return time.Since(h.epoch) }

// soleOp returns the operation in flight on node when there is exactly
// one, else -1.
func (h *hub) soleOp(node transport.NodeID) int {
	if node < 0 || int(node) >= nodes {
		return -1
	}
	op := -1
	for w := range h.active[node] {
		if id := h.active[node][w].Load(); id != 0 {
			if op != -1 {
				return -1
			}
			op = int(id - 1)
		}
	}
	return op
}

func (h *hub) onSend(m *transport.Message) {
	cross := m.From != m.To
	if cross {
		h.sent.Add(1)
	} else {
		h.self.Add(1)
	}
	if !h.traced {
		return
	}
	now := h.now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if cross && m.Kind < maxKind {
		h.byKind[m.Kind]++
	}
	if m.Corr == 0 {
		return // one-way notify: nothing to pair
	}
	if m.IsReply {
		// The reply travels server → client; the rpc is keyed by the client.
		if s := h.byKey[rpcKey{m.To, m.Corr}]; s != nil && s.ReplySent == 0 {
			s.ReplySent = now
		}
		return
	}
	key := rpcKey{m.From, m.Corr}
	if s := h.byKey[key]; s != nil {
		s.Retransmits++
		h.retransmits++
		return
	}
	s := &rpcSpan{From: m.From, To: m.To, Corr: m.Corr, Kind: m.Kind, Op: h.soleOp(m.From), ReqSent: now}
	h.byKey[key] = s
	h.spans = append(h.spans, s)
}

func (h *hub) onDeliver(m *transport.Message) {
	if !h.traced || m.Corr == 0 {
		return
	}
	now := h.now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if m.IsReply {
		// A duplicate reply (the answer to a retransmission) changes nothing.
		if s := h.byKey[rpcKey{m.To, m.Corr}]; s != nil && s.ReplyDelivered == 0 {
			s.ReplyDelivered = now
		}
		return
	}
	if s := h.byKey[rpcKey{m.From, m.Corr}]; s != nil && s.ReqDelivered == 0 {
		s.ReqDelivered = now
	}
}

// tapStats is a copy of the hub's counters at one instant.
type tapStats struct {
	Sent, Self  int64
	ByKind      [maxKind]int64
	Retransmits int64
}

func (h *hub) stats() tapStats {
	st := tapStats{Sent: h.sent.Load(), Self: h.self.Load()}
	if h.traced {
		h.mu.Lock()
		st.ByKind = h.byKind
		st.Retransmits = h.retransmits
		h.mu.Unlock()
	}
	return st
}

func (a tapStats) sub(b tapStats) tapStats {
	a.Sent -= b.Sent
	a.Self -= b.Self
	a.Retransmits -= b.Retransmits
	for k := range a.ByKind {
		a.ByKind[k] -= b.ByKind[k]
	}
	return a
}

// rpcSpans returns every rpc seen so far, answered or not.
func (h *hub) rpcSpans() []rpcSpan {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]rpcSpan, len(h.spans))
	for i, s := range h.spans {
		out[i] = *s
	}
	return out
}

// tap decorates one node's transport: it reports every Send and every
// delivery to the hub and changes nothing else.
type tap struct {
	transport.Transport
	hub *hub
}

func (t *tap) Send(m *transport.Message) error {
	t.hub.onSend(m)
	return t.Transport.Send(m)
}

func (t *tap) SetHandler(h transport.Handler) {
	t.Transport.SetHandler(func(m *transport.Message) {
		t.hub.onDeliver(m)
		h(m)
	})
}
