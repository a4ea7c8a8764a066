package transport

import (
	"sync"
	"sync/atomic"
	"time"
)

// Network is an in-memory cluster interconnect. Every ordered pair of
// endpoints communicates over a private FIFO link whose messages are
// delayed by the configured LatencyModel, mimicking the paper's static
// message-passing network. Create endpoints with Endpoint, then wire
// handlers and start sending.
type Network struct {
	latency LatencyModel

	mu        sync.Mutex
	endpoints map[NodeID]*memEndpoint
	closed    bool

	links sync.WaitGroup

	// interceptor, when set, is consulted before queueing each message;
	// returning false drops the message. Used for failure injection in
	// tests. Stored atomically so Send never takes the network lock.
	interceptor atomic.Value // func(*Message) bool

	// faults, when set, injects drop/duplicate/reorder/crash
	// faults into every Send. Stored atomically for the same reason.
	faults atomic.Pointer[FaultModel]
}

// NewNetwork creates a network with the given latency model (nil means
// ZeroLatency).
func NewNetwork(lat LatencyModel) *Network {
	if lat == nil {
		lat = ZeroLatency{}
	}
	return &Network{
		latency:   lat,
		endpoints: make(map[NodeID]*memEndpoint),
	}
}

// SetInterceptor installs a message filter: messages for which f returns
// false are silently dropped. Pass nil to clear. Intended for fault
// injection in tests.
func (n *Network) SetInterceptor(f func(*Message) bool) {
	if f == nil {
		f = func(*Message) bool { return true }
	}
	n.interceptor.Store(f)
}

// SetFaults installs (or, with nil, removes) a fault model. Every
// subsequent Send consults it; see FaultModel for the semantics. Intended
// for chaos tests and lossy-network experiments.
func (n *Network) SetFaults(fm *FaultModel) { n.faults.Store(fm) }

// Faults returns the installed fault model, or nil.
func (n *Network) Faults() *FaultModel { return n.faults.Load() }

// Endpoint creates (or returns) the endpoint for id.
func (n *Network) Endpoint(id NodeID) Transport {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[id]; ok {
		return ep
	}
	ep := &memEndpoint{net: n, id: id, links: make(map[NodeID]*memLink)}
	n.endpoints[id] = ep
	return ep
}

// Close shuts down the whole network: all links drain and all endpoints
// stop delivering.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*memEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	n.links.Wait()
}

type timedMsg struct {
	at  time.Time
	msg Message
}

type memLink struct {
	dst *memEndpoint

	// mu serialises enqueue against close: a straggler Send racing the
	// endpoint's Close (e.g. a reply triggered by a late fault-injected
	// delivery) must be dropped, not crash on a closed channel.
	mu     sync.Mutex
	ch     chan timedMsg
	closed bool
}

// enqueue queues tm for FIFO delivery, dropping it if the link is closed.
func (lk *memLink) enqueue(tm timedMsg) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if !lk.closed {
		lk.ch <- tm
	}
}

// shut closes the link's channel exactly once.
func (lk *memLink) shut() {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	if !lk.closed {
		lk.closed = true
		close(lk.ch)
	}
}

type memEndpoint struct {
	net     *Network
	id      NodeID
	handler atomic.Value // Handler

	mu     sync.Mutex
	links  map[NodeID]*memLink // outgoing links keyed by destination
	closed bool
}

// Self implements Transport.
func (e *memEndpoint) Self() NodeID { return e.id }

// SetHandler implements Transport.
func (e *memEndpoint) SetHandler(h Handler) { e.handler.Store(h) }

func (e *memEndpoint) deliver(m *Message) {
	h, _ := e.handler.Load().(Handler)
	if h != nil {
		h(m)
	}
}

// Send implements Transport. Messages to the same destination are delivered
// in send order after the link's one-way delay — unless an installed fault
// model drops the message or injects an out-of-order (reordered/duplicate)
// copy, which is delivered on its own timer, outside the link's FIFO.
func (e *memEndpoint) Send(m *Message) error {
	if f, ok := e.net.interceptor.Load().(func(*Message) bool); ok && f != nil && !f(m) {
		return nil // dropped by fault injection
	}
	var out Outcome
	if fm := e.net.faults.Load(); fm != nil {
		out = fm.Decide(e.id, m.To)
		if out.Drop {
			return nil
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	lk, ok := e.links[m.To]
	if !ok {
		e.net.mu.Lock()
		dst, exists := e.net.endpoints[m.To]
		e.net.mu.Unlock()
		if !exists {
			e.mu.Unlock()
			return ErrUnknownNode
		}
		lk = &memLink{ch: make(chan timedMsg, 1024), dst: dst}
		e.links[m.To] = lk
		e.net.links.Add(1)
		go e.runLink(lk)
	}
	base := e.net.latency.Delay(e.id, m.To)
	if out.Dup {
		// Out-of-band goroutines register with the network waitgroup while
		// the endpoint lock still guarantees it is not closed, so Close
		// cannot race the Add.
		e.net.links.Add(1)
		go e.deliverOutOfBand(lk.dst, *m, base+out.DupDelay)
	}
	if out.Delay > 0 {
		e.net.links.Add(1)
		go e.deliverOutOfBand(lk.dst, *m, base+out.Delay)
		e.mu.Unlock()
		return nil
	}
	e.mu.Unlock()

	lk.enqueue(timedMsg{at: time.Now().Add(base), msg: *m})
	return nil
}

// runLink delivers one link's messages in FIFO order, honouring each
// message's delivery time.
func (e *memEndpoint) runLink(lk *memLink) {
	defer e.net.links.Done()
	for tm := range lk.ch {
		if d := time.Until(tm.at); d > 0 {
			time.Sleep(d)
		}
		m := tm.msg
		lk.dst.deliver(&m)
	}
}

// deliverOutOfBand delivers one message copy outside its link's FIFO order
// (a reordered or duplicated copy from the fault model).
func (e *memEndpoint) deliverOutOfBand(dst *memEndpoint, m Message, d time.Duration) {
	defer e.net.links.Done()
	if d > 0 {
		time.Sleep(d)
	}
	dst.deliver(&m)
}

// Close implements Transport.
func (e *memEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	links := e.links
	e.links = map[NodeID]*memLink{}
	e.mu.Unlock()
	for _, lk := range links {
		lk.shut()
	}
	return nil
}
