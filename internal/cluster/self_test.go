package cluster

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dstm/internal/transport"
	"dstm/internal/vclock"
)

// A node does not send itself messages: Call and Notify addressed to Self()
// run the handler in process. These tests pin that path's contract — Call's
// error shapes, and nothing on the fabric.

// selfEndpoint is node 0 of a network whose interceptor counts every Send.
func selfEndpoint(t *testing.T) (*Endpoint, *atomic.Int64) {
	t.Helper()
	a, _, n := newPair(t, nil)
	sends := new(atomic.Int64)
	n.SetInterceptor(func(*transport.Message) bool { sends.Add(1); return true })
	return a, sends
}

func TestSelfCallRunsHandlerInProcess(t *testing.T) {
	a, sends := selfEndpoint(t)
	a.Handle(kindEcho, func(from transport.NodeID, p any) (any, error) {
		if from != a.Self() {
			t.Errorf("from = %d, want self (%d)", from, a.Self())
		}
		return p, nil
	})
	got, err := a.Call(context.Background(), a.Self(), kindEcho, "hi")
	if err != nil || got != "hi" {
		t.Fatalf("self call = %v, %v", got, err)
	}
	if n := sends.Load(); n != 0 {
		t.Fatalf("self call put %d messages on the transport, want 0", n)
	}
}

func TestSelfCallErrorShapes(t *testing.T) {
	a, sends := selfEndpoint(t)
	a.Handle(kindFail, func(transport.NodeID, any) (any, error) { return nil, errors.New("boom") })
	ran := false
	a.Handle(kindEcho, func(transport.NodeID, any) (any, error) { ran = true; return nil, nil })

	var re *RemoteError
	if _, err := a.Call(context.Background(), 0, kindFail, nil); !errors.As(err, &re) || re.Node != a.Self() || re.Msg != "boom" {
		t.Fatalf("handler error: %v, want RemoteError{Node: self, Msg: boom}", err)
	}
	if _, err := a.Call(context.Background(), 0, kindAbsent, nil); !errors.As(err, &re) || re.Node != a.Self() || !strings.Contains(re.Msg, "no handler for") {
		t.Fatalf("unknown kind: %v, want the no-handler RemoteError", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Call(ctx, 0, kindEcho, nil); !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("cancelled context: err %v, handler ran %v; want Canceled and no run", err, ran)
	}
	a.Close()
	if _, err := a.Call(context.Background(), 0, kindEcho, nil); !errors.Is(err, ErrEndpointClosed) || ran {
		t.Fatalf("closed endpoint: err %v, handler ran %v; want ErrEndpointClosed and no run", err, ran)
	}
	if err := a.Notify(0, kindPing, nil); !errors.Is(err, ErrEndpointClosed) {
		t.Fatalf("closed endpoint: notify err %v, want ErrEndpointClosed", err)
	}
	if n := sends.Load(); n != 0 {
		t.Fatalf("%d messages on the transport, want 0", n)
	}
}

func TestSelfNotifyRunsHandlerInProcess(t *testing.T) {
	a, sends := selfEndpoint(t)
	var got any
	a.HandleNotify(kindPing, func(from transport.NodeID, p any) {
		if from != a.Self() {
			t.Errorf("from = %d, want self", from)
		}
		got = p
	})
	if err := a.Notify(a.Self(), kindPing, 42); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("notify handler saw %v, want 42 by the time Notify returns", got)
	}
	if err := a.Notify(a.Self(), kindAbsent, nil); err != nil {
		t.Fatalf("notify of an unhandled kind: %v, want it dropped as a delivered one is", err)
	}
	if n := sends.Load(); n != 0 {
		t.Fatalf("self notify put %d messages on the transport, want 0", n)
	}
}

// TestSelfCallReentrant: the endpoint holds no lock while a handler runs, so
// a handler run in process for a self-call can call (and notify) its own
// node again. A handler served on the delivery path must not call at all
// (RequestHandler).
func TestSelfCallReentrant(t *testing.T) {
	a, _ := selfEndpoint(t)
	pinged := false
	a.HandleNotify(kindPing, func(transport.NodeID, any) { pinged = true })
	a.Handle(kindEcho, func(_ transport.NodeID, p any) (any, error) { return p, nil })
	a.Handle(kindSlow, func(_ transport.NodeID, p any) (any, error) {
		if err := a.Notify(a.Self(), kindPing, nil); err != nil {
			return nil, err
		}
		return a.Call(context.Background(), a.Self(), kindEcho, p)
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got, err := a.Call(context.Background(), a.Self(), kindSlow, "in"); err != nil || got != "in" || !pinged {
			t.Errorf("nested self call = %v, %v (pinged %v)", got, err, pinged)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a handler calling its own node deadlocked")
	}
}

// BenchmarkEndpointCall is the cluster layer's micro-benchmark: one echo
// round trip to the node itself (in process) and to a peer over a
// zero-latency memnet link (two transport sends, dedup entry, reply
// channel; the handler runs on the link's delivery goroutine).
func BenchmarkEndpointCall(b *testing.B) {
	n := transport.NewNetwork(nil)
	defer n.Close()
	a := NewEndpoint(n.Endpoint(0), &vclock.Clock{})
	peer := NewEndpoint(n.Endpoint(1), &vclock.Clock{})
	echo := func(_ transport.NodeID, p any) (any, error) { return p, nil }
	a.Handle(kindEcho, echo)
	peer.Handle(kindEcho, echo)
	ctx := context.Background()
	for _, c := range []struct {
		name string
		to   transport.NodeID
	}{{"self", 0}, {"memnet-zero", 1}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.Call(ctx, c.to, kindEcho, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
