package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstm/internal/transport"
	"dstm/internal/vclock"
)

// These tests pin Broadcast's wave: every request leaves from the caller's
// goroutine, each slot retransmits on its own schedule, the replies come
// back on one channel, and a request is served on the goroutine that
// delivered it.

// newWave is node 0 of a memnet cluster of 1+peers nodes; every peer counts
// the requests its kindCount handler serves and echoes the payload.
func newWave(t *testing.T, peers int) (*Endpoint, *transport.Network, []*atomic.Int64) {
	t.Helper()
	n := transport.NewNetwork(nil)
	t.Cleanup(n.Close)
	a := NewEndpoint(n.Endpoint(0), &vclock.Clock{})
	served := make([]*atomic.Int64, 1+peers)
	for i := 1; i <= peers; i++ {
		c := new(atomic.Int64)
		served[i] = c
		NewEndpoint(n.Endpoint(transport.NodeID(i)), &vclock.Clock{}).Handle(kindCount, func(_ transport.NodeID, p any) (any, error) {
			c.Add(1)
			return p, nil
		})
	}
	return a, n, served
}

// toPeers is one kindCount call to each of nodes 1..peers, carrying its
// destination as the payload.
func toPeers(peers int) []Outcall {
	calls := make([]Outcall, peers)
	for i := range calls {
		calls[i] = Outcall{To: transport.NodeID(i + 1), Kind: kindCount, Payload: i + 1}
	}
	return calls
}

// TestWaveRetransmitsOnlyTheLostSlot: the first request to node 2 is lost.
// Only that slot is sent again, under its own correlation ID and the wave's
// floor, and every handler runs once.
func TestWaveRetransmitsOnlyTheLostSlot(t *testing.T) {
	a, n, served := newWave(t, 3)
	// Long enough that a reply that was not lost always beats it.
	a.SetRetryPolicy(RetryPolicy{PerTryTimeout: 100 * time.Millisecond, BaseBackoff: time.Millisecond})
	var (
		mu   sync.Mutex
		sent = map[transport.NodeID][]transport.Message{}
	)
	n.SetInterceptor(func(m *transport.Message) bool {
		if m.IsReply {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		sent[m.To] = append(sent[m.To], *m)
		return !(m.To == 2 && len(sent[2]) == 1)
	})

	for i, r := range a.Broadcast(context.Background(), toPeers(3)) {
		if r.Err != nil || r.Body != i+1 {
			t.Fatalf("slot %d = %v, %v; want %d", i, r.Body, r.Err, i+1)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sent[1]) != 1 || len(sent[3]) != 1 || len(sent[2]) != 2 {
		t.Fatalf("requests sent to nodes 1/2/3 = %d/%d/%d, want 1/2/1", len(sent[1]), len(sent[2]), len(sent[3]))
	}
	first, again := sent[2][0], sent[2][1]
	if again.Corr != first.Corr || again.Floor != first.Floor || first.Floor != sent[1][0].Floor {
		t.Fatalf("retransmission (corr %d, floor %d) of (corr %d, floor %d); want both kept, floor shared by the wave (%d)",
			again.Corr, again.Floor, first.Corr, first.Floor, sent[1][0].Floor)
	}
	for i := 1; i <= 3; i++ {
		if c := served[i].Load(); c != 1 {
			t.Fatalf("node %d served %d requests, want 1", i, c)
		}
	}
}

// waveWithTwoLost starts a wave to nodes 1, 2 and 3 whose requests to 2 and
// 3 are lost, and returns once node 1's reply has reached node 0.
func waveWithTwoLost(t *testing.T, ctx context.Context) (*Endpoint, <-chan []CallResult) {
	t.Helper()
	a, n, _ := newWave(t, 3)
	n.SetInterceptor(func(m *transport.Message) bool { return m.IsReply || m.To == 1 })
	done := make(chan []CallResult, 1)
	go func() { done <- a.Broadcast(ctx, toPeers(3)) }()
	// The first reply takes its slot out of pending before the wave sees it.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		a.mu.Lock()
		answered := a.corr == 3 && len(a.pending) == 2
		a.mu.Unlock()
		if answered {
			return a, done
		}
		if time.Now().After(deadline) {
			t.Fatal("node 1 never answered")
		}
	}
}

// checkEnded: slot 0 kept node 1's reply and the two open slots got want.
func checkEnded(t *testing.T, done <-chan []CallResult, want error) {
	t.Helper()
	select {
	case res := <-done:
		if res[0].Err != nil || res[0].Body != 1 {
			t.Fatalf("answered slot = %v, %v; want its reply kept", res[0].Body, res[0].Err)
		}
		for i, r := range res[1:] {
			if !errors.Is(r.Err, want) {
				t.Fatalf("open slot %d: %v, want %v", i+1, r.Err, want)
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the wave did not end")
	}
}

func TestWaveCloseFailsOpenSlots(t *testing.T) {
	a, done := waveWithTwoLost(t, context.Background())
	a.Close()
	checkEnded(t, done, ErrEndpointClosed)
}

func TestWaveCancelKeepsAnsweredSlots(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	_, done := waveWithTwoLost(t, ctx)
	cancel()
	checkEnded(t, done, context.Canceled)
}

// tcpCluster is n endpoints over loopback TCP.
func tcpCluster(t testing.TB, n int) []*Endpoint {
	t.Helper()
	nodes := make([]*transport.TCPNode, n)
	peers := make(map[transport.NodeID]string)
	for i := range nodes {
		tn, err := transport.NewTCPNode(transport.NodeID(i), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], peers[transport.NodeID(i)] = tn, tn.Addr()
	}
	eps := make([]*Endpoint, n)
	for i, tn := range nodes {
		eps[i] = NewEndpoint(withPeers(tn, peers), &vclock.Clock{})
		t.Cleanup(func() { eps[i].Close() })
	}
	return eps
}

// TestInlineHandlersDoNotDeadlockOverTCP: 64 callers on each side of one TCP
// connection call the other side at once. Every reply is sent from the
// goroutine that reads the connection, so this completes only if a reply
// never waits on a read its own side has not done.
func TestInlineHandlersDoNotDeadlockOverTCP(t *testing.T) {
	eps := tcpCluster(t, 2)
	for _, ep := range eps {
		ep.Handle(kindEcho, func(_ transport.NodeID, p any) (any, error) { return p, nil })
	}
	const callers, calls = 64, 20
	var wg sync.WaitGroup
	errs := make(chan error, 2*callers)
	for side, ep := range eps {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(ep *Endpoint, to transport.NodeID, c int) {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					want := tcpEcho{S: fmt.Sprintf("%d/%d/%d", to, c, i)}
					if got, err := ep.Call(context.Background(), to, kindEcho, want); err != nil || got != want {
						errs <- fmt.Errorf("call %v = %v, %v", want, got, err)
						return
					}
				}
			}(ep, transport.NodeID(1-side), c)
		}
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(20 * time.Second):
		t.Fatal("callers on both sides of one connection deadlocked")
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// BenchmarkWave is the cluster layer's per-layer benchmark for a wave: node
// 0 broadcasts one echo request to each of three peers and collects the
// replies, over a zero-latency memnet and over loopback TCP.
func BenchmarkWave(b *testing.B) {
	echo := func(_ transport.NodeID, p any) (any, error) { return p, nil }
	memnet := func(b *testing.B) []*Endpoint {
		n := transport.NewNetwork(transport.ZeroLatency{})
		b.Cleanup(n.Close)
		eps := make([]*Endpoint, 4)
		for i := range eps {
			eps[i] = NewEndpoint(n.Endpoint(transport.NodeID(i)), &vclock.Clock{})
		}
		return eps
	}
	for _, fabric := range []struct {
		name  string
		build func(*testing.B) []*Endpoint
	}{{"memnet-zero", memnet}, {"tcp-loopback", func(b *testing.B) []*Endpoint { return tcpCluster(b, 4) }}} {
		b.Run(fabric.name, func(b *testing.B) {
			eps := fabric.build(b)
			calls := make([]Outcall, 3)
			for i := range calls {
				eps[i+1].Handle(kindEcho, echo)
				calls[i] = Outcall{To: transport.NodeID(i + 1), Kind: kindEcho, Payload: tcpEcho{S: "wave"}}
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range eps[0].Broadcast(ctx, calls) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
