package transport

import (
	"sync"
	"testing"
	"time"

	"dstm/internal/wire"
)

// Test-only wire type IDs (90–99 are never assigned outside tests).
const (
	wireIDTCPPayload  wire.ID = 90
	wireIDFuzzPayload wire.ID = 91
)

type tcpPayload struct {
	N int
	S string
}

func (p tcpPayload) AppendWire(b []byte) ([]byte, error) {
	return wire.AppendString(wire.AppendVarint(b, int64(p.N)), p.S), nil
}

func (tcpPayload) ReadWire(r *wire.Reader) any { return tcpPayload{N: int(r.Varint()), S: r.String()} }

func init() { wire.Register(wireIDTCPPayload, tcpPayload{}) }

// newTCPPair starts two TCP nodes on loopback that know each other's
// addresses.
func newTCPPair(t *testing.T) (*TCPNode, *TCPNode) {
	t.Helper()
	a, err := NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPNode(1, "127.0.0.1:0", nil)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	peers := map[NodeID]string{0: a.Addr(), 1: b.Addr()}
	a.SetPeers(peers)
	b.SetPeers(peers)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPBasicRoundTrip(t *testing.T) {
	a, b := newTCPPair(t)

	got := make(chan *Message, 1)
	b.SetHandler(func(m *Message) { got <- m })

	err := a.Send(&Message{From: 0, To: 1, Kind: 3, Clock: 42,
		Payload: tcpPayload{N: 7, S: "hi"}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		p, ok := m.Payload.(tcpPayload)
		if !ok || p.N != 7 || p.S != "hi" || m.Clock != 42 {
			t.Fatalf("bad message %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery over TCP")
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, b := newTCPPair(t)
	gotA := make(chan *Message, 1)
	gotB := make(chan *Message, 1)
	a.SetHandler(func(m *Message) { gotA <- m })
	b.SetHandler(func(m *Message) { gotB <- m })

	if err := a.Send(&Message{From: 0, To: 1, Payload: tcpPayload{N: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(&Message{From: 1, To: 0, Payload: tcpPayload{N: 2}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case m := <-gotA:
			if m.Payload.(tcpPayload).N != 2 {
				t.Fatalf("A got %+v", m)
			}
		case m := <-gotB:
			if m.Payload.(tcpPayload).N != 1 {
				t.Fatalf("B got %+v", m)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("timeout")
		}
	}
}

func TestTCPManyMessagesOrdered(t *testing.T) {
	a, b := newTCPPair(t)
	const count = 200
	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	b.SetHandler(func(m *Message) {
		mu.Lock()
		order = append(order, m.Payload.(tcpPayload).N)
		if len(order) == count {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < count; i++ {
		if err := a.Send(&Message{From: 0, To: 1, Payload: tcpPayload{N: i}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

// TestTCPSendWithoutCodec: a payload whose type has no wire codec cannot
// cross. Send reports it and takes the frame's partial encoding back out of
// the connection's buffer, so the next frame on the connection arrives
// intact.
func TestTCPSendWithoutCodec(t *testing.T) {
	a, b := newTCPPair(t)
	got := make(chan *Message, 1)
	b.SetHandler(func(m *Message) { got <- m })

	type noCodec struct{ N int }
	if err := a.Send(&Message{From: 0, To: 1, Kind: 3, Payload: noCodec{N: 1}}); err == nil {
		t.Fatal("Send of a payload without a codec succeeded")
	}
	after := tcpPayload{N: 2, S: "after"}
	if err := a.Send(&Message{From: 0, To: 1, Kind: 4, Clock: 9, Payload: after}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if p, ok := m.Payload.(tcpPayload); !ok || p != after || m.Kind != 4 || m.Clock != 9 {
			t.Fatalf("the frame after the failed send arrived as %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the frame after the failed send never arrived")
	}
	if n := a.Stats().MsgsSent; n != 1 {
		t.Fatalf("sent %d frames, want 1", n)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := newTCPPair(t)
	if err := a.Send(&Message{From: 0, To: 42}); err != ErrUnknownNode {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, b := newTCPPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&Message{From: 0, To: 1}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	_ = b
}

func TestTCPSelfIdentity(t *testing.T) {
	a, b := newTCPPair(t)
	if a.Self() != 0 || b.Self() != 1 {
		t.Fatalf("Self() = %d, %d", a.Self(), b.Self())
	}
}
