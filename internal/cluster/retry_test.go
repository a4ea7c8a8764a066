package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstm/internal/transport"
)

const kindCount transport.Kind = 110

// fastRetry is an aggressive policy suited to a zero-latency test network.
func fastRetry() RetryPolicy {
	return RetryPolicy{
		PerTryTimeout: 20 * time.Millisecond,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    5 * time.Millisecond,
	}
}

// countingPair wires two endpoints with a handler on b that counts its
// executions and echoes the payload.
func countingPair(t *testing.T) (a, b *Endpoint, n *transport.Network, calls *atomic.Int64) {
	t.Helper()
	a, b, n = newPair(t, nil)
	calls = new(atomic.Int64)
	b.Handle(kindCount, func(_ transport.NodeID, p any) (any, error) {
		calls.Add(1)
		return p, nil
	})
	return a, b, n, calls
}

func TestCallRetriesLostRequest(t *testing.T) {
	a, _, n, calls := countingPair(t)
	a.SetRetryPolicy(fastRetry())

	// Drop the first two request transmissions; let everything else pass.
	var drops atomic.Int64
	n.SetInterceptor(func(m *transport.Message) bool {
		if !m.IsReply && m.Kind == kindCount && drops.Add(1) <= 2 {
			return false
		}
		return true
	})
	got, err := a.Call(context.Background(), 1, kindCount, "ping")
	if err != nil {
		t.Fatalf("call failed despite retries: %v", err)
	}
	if got != "ping" {
		t.Fatalf("got %v", got)
	}
	if c := calls.Load(); c != 1 {
		t.Fatalf("handler ran %d times, want 1", c)
	}
}

func TestCallRetriesLostReply(t *testing.T) {
	a, _, n, calls := countingPair(t)
	a.SetRetryPolicy(fastRetry())

	// Drop the first reply: the client must retransmit and the server must
	// answer from its dedup cache without re-running the handler.
	var drops atomic.Int64
	n.SetInterceptor(func(m *transport.Message) bool {
		if m.IsReply && m.Kind == kindCount && drops.Add(1) <= 1 {
			return false
		}
		return true
	})
	got, err := a.Call(context.Background(), 1, kindCount, "pong")
	if err != nil {
		t.Fatalf("call failed despite retries: %v", err)
	}
	if got != "pong" {
		t.Fatalf("got %v", got)
	}
	if c := calls.Load(); c != 1 {
		t.Fatalf("handler ran %d times, want exactly 1 (duplicate must hit the cache)", c)
	}
}

func TestCallDuplicatedRequestsSuppressed(t *testing.T) {
	a, _, n, calls := countingPair(t)
	a.SetRetryPolicy(fastRetry())

	// The network duplicates every message; handlers must still run once
	// per logical call.
	n.SetFaults(transport.NewFaultModel(transport.FaultConfig{
		Seed: 1, Duplicate: 1, MaxExtraDelay: time.Millisecond,
	}))
	for i := 0; i < 10; i++ {
		if _, err := a.Call(context.Background(), 1, kindCount, i); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// Let straggling duplicate copies land before counting.
	time.Sleep(10 * time.Millisecond)
	if c := calls.Load(); c != 10 {
		t.Fatalf("handler ran %d times for 10 calls, want 10", c)
	}
}

// TestLateCopyOfAnEndedCallIsNeverServed: a copy of a request delivered
// again after its call returned — with 4,097 calls to the same receiver in
// between — does not run the handler a second time.
func TestLateCopyOfAnEndedCallIsNeverServed(t *testing.T) {
	a, _, n, calls := countingPair(t)
	var mu sync.Mutex
	var first *transport.Message
	n.SetInterceptor(func(m *transport.Message) bool {
		mu.Lock()
		if first == nil && m.Kind == kindCount && !m.IsReply {
			c := *m
			first = &c
		}
		mu.Unlock()
		return true
	})
	ctx := context.Background()
	if _, err := a.Call(ctx, 1, kindCount, "once"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 4096; i++ {
		if _, err := a.Call(ctx, 1, kindEcho, i); err == nil {
			t.Fatal("echo has no handler here: want a remote error")
		}
	}
	mu.Lock()
	late := first
	mu.Unlock()
	if err := n.Endpoint(0).Send(late); err != nil {
		t.Fatal(err)
	}
	// The link is FIFO: once a later call is answered, the copy has been
	// delivered, and a served copy's handler gets 50 ms.
	if _, err := a.Call(ctx, 1, kindCount, "after"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if c := calls.Load(); c != 2 {
		t.Fatalf("handler ran %d times for 2 calls and a late copy, want 2", c)
	}
}

// TestDedupHoldsOnlyCallsInFlight: a sender making one call at a time has
// one request remembered at the receiver — the one being served — however
// many calls it has made.
func TestDedupHoldsOnlyCallsInFlight(t *testing.T) {
	a, b, _ := newPair(t, nil)
	var most atomic.Int64
	b.Handle(kindEcho, func(from transport.NodeID, p any) (any, error) {
		b.mu.Lock()
		held := int64(len(b.dedup[from]))
		b.mu.Unlock()
		if held > most.Load() {
			most.Store(held)
		}
		return p, nil
	})
	for i := 0; i < 100; i++ {
		if _, err := a.Call(context.Background(), 1, kindEcho, i); err != nil {
			t.Fatal(err)
		}
	}
	if m := most.Load(); m != 1 {
		t.Fatalf("the receiver held up to %d requests from a sender with one call in flight, want 1", m)
	}
}

func TestCallContextCancelMidRetry(t *testing.T) {
	a, _, n, _ := countingPair(t)
	a.SetRetryPolicy(fastRetry())

	n.SetInterceptor(func(m *transport.Message) bool { return false }) // black hole
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(ctx, 1, kindCount, nil)
		done <- err
	}()
	// Let a few retransmissions happen, then cancel mid-retry.
	time.Sleep(60 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled call did not return promptly")
	}
}

func TestCallSlowHandlerRunsOnceUnderRetries(t *testing.T) {
	a, b, _ := newPair(t, nil)
	a.SetRetryPolicy(fastRetry())

	var calls atomic.Int64
	b.Handle(kindCount, func(_ transport.NodeID, p any) (any, error) {
		calls.Add(1)
		// Slower than PerTryTimeout: the client will retransmit while the
		// handler is still running; the in-flight dedup entry must absorb
		// the duplicates, and the eventual reply must complete the call.
		time.Sleep(60 * time.Millisecond)
		return p, nil
	})
	got, err := a.Call(context.Background(), 1, kindCount, "slow")
	if err != nil {
		t.Fatalf("call failed: %v", err)
	}
	if got != "slow" {
		t.Fatalf("got %v", got)
	}
	if c := calls.Load(); c != 1 {
		t.Fatalf("handler ran %d times, want 1 (in-flight dedup)", c)
	}
}

func TestCallUnderHeavyLoss(t *testing.T) {
	a, _, n, calls := countingPair(t)
	a.SetRetryPolicy(fastRetry())

	n.SetFaults(transport.NewFaultModel(transport.FaultConfig{
		Seed: 42, Drop: 0.3, Duplicate: 0.1, Reorder: 0.2, MaxExtraDelay: time.Millisecond,
	}))
	const total = 40
	for i := 0; i < total; i++ {
		got, err := a.Call(context.Background(), 1, kindCount, i)
		if err != nil {
			t.Fatalf("call %d failed under 30%% loss: %v", i, err)
		}
		if got != i {
			t.Fatalf("call %d returned %v (correlation broken)", i, got)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if c := calls.Load(); c != total {
		t.Fatalf("handler ran %d times for %d calls, want exactly %d", c, total, total)
	}
}

func TestRetryPolicyAccessors(t *testing.T) {
	a, _, _ := newPair(t, nil)
	if p := a.RetryPolicy(); p != DefaultRetryPolicy() {
		t.Fatalf("fresh endpoint policy %+v, want default", p)
	}
	custom := RetryPolicy{PerTryTimeout: time.Second, BaseBackoff: 7 * time.Millisecond}
	a.SetRetryPolicy(custom)
	if p := a.RetryPolicy(); p != custom {
		t.Fatalf("policy %+v, want %+v", p, custom)
	}
}
