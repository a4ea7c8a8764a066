package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dstm/internal/transport"
	"dstm/internal/vclock"
	"dstm/internal/wire"
)

const (
	kindEcho   transport.Kind = 100
	kindFail   transport.Kind = 101
	kindSlow   transport.Kind = 102
	kindPing   transport.Kind = 103
	kindAbsent transport.Kind = 104
)

func newPair(t *testing.T, lat transport.LatencyModel) (*Endpoint, *Endpoint, *transport.Network) {
	t.Helper()
	n := transport.NewNetwork(lat)
	a := NewEndpoint(n.Endpoint(0), &vclock.Clock{})
	b := NewEndpoint(n.Endpoint(1), &vclock.Clock{})
	t.Cleanup(func() { n.Close() })
	return a, b, n
}

func TestCallRoundTrip(t *testing.T) {
	a, b, _ := newPair(t, nil)
	b.Handle(kindEcho, func(from transport.NodeID, p any) (any, error) {
		return fmt.Sprintf("echo:%v:from%d", p, from), nil
	})
	got, err := a.Call(context.Background(), 1, kindEcho, "hi")
	if err != nil {
		t.Fatal(err)
	}
	if got != "echo:hi:from0" {
		t.Fatalf("got %v", got)
	}
}

func TestCallRemoteError(t *testing.T) {
	a, b, _ := newPair(t, nil)
	b.Handle(kindFail, func(transport.NodeID, any) (any, error) {
		return nil, errors.New("boom")
	})
	_, err := a.Call(context.Background(), 1, kindFail, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Node != 1 || !strings.Contains(re.Msg, "boom") {
		t.Fatalf("bad remote error: %+v", re)
	}
}

func TestCallNoHandler(t *testing.T) {
	a, _, _ := newPair(t, nil)
	_, err := a.Call(context.Background(), 1, kindAbsent, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError about missing handler", err)
	}
}

func TestCallContextCancel(t *testing.T) {
	a, b, _ := newPair(t, nil)
	block := make(chan struct{})
	b.Handle(kindSlow, func(transport.NodeID, any) (any, error) {
		<-block
		return nil, nil
	})
	defer close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := a.Call(ctx, 1, kindSlow, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestCallAfterClose(t *testing.T) {
	a, _, _ := newPair(t, nil)
	a.Close()
	if _, err := a.Call(context.Background(), 1, kindEcho, nil); !errors.Is(err, ErrEndpointClosed) {
		t.Fatalf("err = %v, want ErrEndpointClosed", err)
	}
	if err := a.Notify(1, kindPing, nil); !errors.Is(err, ErrEndpointClosed) {
		t.Fatalf("notify err = %v, want ErrEndpointClosed", err)
	}
	a.Close() // idempotent
}

// TestClosePendingCall is the regression test for the shutdown hang: a Call
// already in flight (request delivered, reply never coming) must be failed
// with ErrEndpointClosed by Close, not left blocked until its timeout.
func TestClosePendingCall(t *testing.T) {
	a, b, _ := newPair(t, nil)
	entered := make(chan struct{})
	block := make(chan struct{})
	defer close(block)
	var once sync.Once
	b.Handle(kindSlow, func(transport.NodeID, any) (any, error) {
		once.Do(func() { close(entered) })
		<-block
		return nil, nil
	})

	errc := make(chan error, 1)
	go func() {
		_, err := a.Call(context.Background(), 1, kindSlow, nil)
		errc <- err
	}()
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		t.Fatal("request never reached the handler")
	}
	a.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrEndpointClosed) {
			t.Fatalf("pending call err = %v, want ErrEndpointClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not fail the pending call")
	}
}

func TestNotify(t *testing.T) {
	a, b, _ := newPair(t, nil)
	got := make(chan any, 1)
	b.HandleNotify(kindPing, func(from transport.NodeID, p any) { got <- p })
	if err := a.Notify(1, kindPing, 7); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if p != 7 {
			t.Fatalf("payload %v", p)
		}
	case <-time.After(time.Second):
		t.Fatal("notify not delivered")
	}
}

func TestClockPiggyback(t *testing.T) {
	n := transport.NewNetwork(nil)
	defer n.Close()
	ca, cb := &vclock.Clock{}, &vclock.Clock{}
	a := NewEndpoint(n.Endpoint(0), ca)
	b := NewEndpoint(n.Endpoint(1), cb)
	b.Handle(kindEcho, func(transport.NodeID, any) (any, error) { return nil, nil })

	// Advance A's clock; after a round trip, B must have merged it (and A
	// must have merged B's reply clock, which is now >= A's).
	for i := 0; i < 17; i++ {
		ca.Tick()
	}
	if _, err := a.Call(context.Background(), 1, kindEcho, nil); err != nil {
		t.Fatal(err)
	}
	if got := cb.Now(); got < 17 {
		t.Fatalf("B's clock = %d after receiving message with clock 17", got)
	}
}

func TestConcurrentCalls(t *testing.T) {
	a, b, _ := newPair(t, transport.UniformLatency(time.Millisecond))
	b.Handle(kindEcho, func(_ transport.NodeID, p any) (any, error) { return p, nil })
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := a.Call(context.Background(), 1, kindEcho, i)
			if err != nil {
				errs <- err
				return
			}
			if got != i {
				errs <- fmt.Errorf("call %d got %v (correlation mixed up)", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDuplicateHandlerPanics(t *testing.T) {
	a, _, _ := newPair(t, nil)
	a.Handle(kindEcho, func(transport.NodeID, any) (any, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Handle did not panic")
		}
	}()
	a.Handle(kindEcho, func(transport.NodeID, any) (any, error) { return nil, nil })
}

func TestDuplicateNotifyPanics(t *testing.T) {
	a, _, _ := newPair(t, nil)
	a.HandleNotify(kindPing, func(transport.NodeID, any) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate HandleNotify did not panic")
		}
	}()
	a.HandleNotify(kindPing, func(transport.NodeID, any) {})
}

func TestLostReplyTimesOut(t *testing.T) {
	a, b, n := newPair(t, nil)
	b.Handle(kindEcho, func(transport.NodeID, any) (any, error) { return "ok", nil })
	// Drop all replies.
	n.SetInterceptor(func(m *transport.Message) bool { return !m.IsReply })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, 1, kindEcho, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded when reply lost", err)
	}
}

func TestCallOverTCP(t *testing.T) {
	ta, err := transport.NewTCPNode(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := transport.NewTCPNode(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	peers := map[transport.NodeID]string{0: ta.Addr(), 1: tb.Addr()}
	// Both transports need the peer table; reach in via the exported API.
	a := NewEndpoint(withPeers(ta, peers), &vclock.Clock{})
	b := NewEndpoint(withPeers(tb, peers), &vclock.Clock{})
	defer a.Close()
	defer b.Close()

	b.Handle(kindEcho, func(_ transport.NodeID, p any) (any, error) { return p, nil })
	got, err := a.Call(context.Background(), 1, kindEcho, tcpEcho{S: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	if got != (tcpEcho{S: "tcp"}) {
		t.Fatalf("got %v", got)
	}
}

// tcpEcho is a payload with a wire codec, so it can cross TCP.
type tcpEcho struct{ S string }

func (e tcpEcho) AppendWire(b []byte) ([]byte, error) { return wire.AppendString(b, e.S), nil }

func (tcpEcho) ReadWire(r *wire.Reader) any { return tcpEcho{S: r.String()} }

// wireIDTCPEcho is test-only (90–99 are never assigned outside tests).
const wireIDTCPEcho wire.ID = 92

func init() { wire.Register(wireIDTCPEcho, tcpEcho{}) }

// withPeers is a test helper: TCPNode resolves peers lazily, so installing
// the table after construction is fine as long as it happens before Send.
func withPeers(n *transport.TCPNode, peers map[transport.NodeID]string) transport.Transport {
	n.SetPeers(peers)
	return n
}
