// Package transport provides the message-passing layer of the simulated
// cluster: a common Message format and Transport interface with two
// implementations — an in-memory network with a configurable per-link
// latency model (memnet.go), and a TCP transport (tcpnet.go) for real
// multi-process deployments, framing messages with the zero-allocation
// binary codec of internal/wire.
//
// The paper's testbed is 80 physical nodes joined by message-passing links
// with 1–50 ms delays; the in-memory network reproduces that topology with
// one endpoint per node and deterministic per-link delays, scaled so a full
// experiment sweep runs on a single machine.
package transport

import (
	"errors"
	"fmt"
)

// NodeID identifies a node in the cluster. Nodes are numbered 0..N-1.
type NodeID int32

// Kind tags the payload type of a message so receivers can route it without
// reflection. Subsystems carve out their own ranges (see cluster, cc, stm).
type Kind uint16

// Message is the unit of communication. Clock carries the sender's TFA
// logical clock for asynchronous clock synchronisation; Corr correlates a
// reply with its request (0 for one-way notifications). Floor, on a
// request, is the lowest correlation ID among the sender's calls still
// awaiting a reply when this call was issued: every call of the sender
// below it is over, so the receiver may drop any request below it.
// Piggyback is what the sender's messaging layer attaches beside the
// payload for the receiver's messaging layer (nil: nothing); a transport
// carries it as it carries the payload.
type Message struct {
	From      NodeID
	To        NodeID
	Clock     uint64
	Kind      Kind
	Corr      uint64
	Floor     uint64
	IsReply   bool
	Payload   any
	Piggyback any
}

// Handler receives every message delivered to an endpoint. Handlers must
// not block for long: the in-memory network delivers each link's messages
// in FIFO order from a single goroutine.
type Handler func(m *Message)

// Transport is one node's attachment to the network.
type Transport interface {
	// Self returns this endpoint's node ID.
	Self() NodeID
	// Send queues m for delivery to m.To. It returns an error if the
	// transport is closed or the destination is unknown.
	Send(m *Message) error
	// SetHandler installs the delivery callback. It must be called before
	// the first message can be delivered; messages arriving earlier are
	// dropped.
	SetHandler(h Handler)
	// Close shuts the endpoint down. Subsequent Sends fail.
	Close() error
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnknownNode is returned by Send when the destination does not exist.
var ErrUnknownNode = errors.New("transport: unknown destination node")

func (k Kind) String() string { return fmt.Sprintf("kind(%d)", uint16(k)) }
