package cluster

import (
	"context"
	"errors"
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
