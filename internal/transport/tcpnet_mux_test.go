package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// newTCPPairOpts is newTCPPair with explicit options on both nodes.
func newTCPPairOpts(t *testing.T, opts TCPOptions) (*TCPNode, *TCPNode) {
	t.Helper()
	a, err := NewTCPNodeOpts(0, "127.0.0.1:0", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPNodeOpts(1, "127.0.0.1:0", nil, opts)
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

// TestTCPMuxNoReverseDial: with the binary codec, a node that has only
// received traffic replies over the connection the peer dialled — one
// multiplexed connection per peer pair, zero reverse dials.
func TestTCPMuxNoReverseDial(t *testing.T) {
	a, b := newTCPPairOpts(t, TCPOptions{Codec: CodecBinary})

	done := make(chan *Message, 1)
	a.SetHandler(func(m *Message) { done <- m })
	// b echoes every message back to its sender.
	b.SetHandler(func(m *Message) {
		_ = b.Send(&Message{From: 1, To: m.From, Kind: m.Kind, Corr: m.Corr, IsReply: true,
			Payload: m.Payload})
	})

	if err := a.Send(&Message{From: 0, To: 1, Kind: 9, Corr: 77, Payload: tcpPayload{N: 1}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-done:
		if !m.IsReply || m.Corr != 77 {
			t.Fatalf("bad echo %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no echo")
	}

	if d := b.Stats().Dials; d != 0 {
		t.Fatalf("replying node dialled %d times; want 0 (mux over inbound conn)", d)
	}
	if d := a.Stats().Dials; d != 1 {
		t.Fatalf("requester dialled %d times; want 1", d)
	}
}

// TestTCPWriteCoalescing: a burst of small sends must land in far fewer
// write syscalls than messages, given a flush window.
func TestTCPWriteCoalescing(t *testing.T) {
	a, b := newTCPPairOpts(t, TCPOptions{Codec: CodecBinary, FlushDelay: 2 * time.Millisecond})

	const burst = 200
	var mu sync.Mutex
	recv := 0
	got := make(chan struct{})
	b.SetHandler(func(m *Message) {
		mu.Lock()
		recv++
		if recv == burst {
			close(got)
		}
		mu.Unlock()
	})

	for i := 0; i < burst; i++ {
		if err := a.Send(&Message{From: 0, To: 1, Kind: 2, Corr: uint64(i + 1),
			Payload: tcpPayload{N: i}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		mu.Lock()
		t.Fatalf("only %d/%d delivered", recv, burst)
	}

	st := a.Stats()
	if st.MsgsSent != burst {
		t.Fatalf("sent %d msgs, want %d", st.MsgsSent, burst)
	}
	if st.Writes >= burst/2 {
		t.Fatalf("%d writes for %d msgs: coalescing ineffective", st.Writes, burst)
	}
}

// TestTCPStatsCounters: both directions count messages and bytes.
func TestTCPStatsCounters(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		a, b := newTCPPairOpts(t, TCPOptions{})
		got := make(chan struct{}, 4)
		b.SetHandler(func(m *Message) { got <- struct{}{} })
		for i := 0; i < 4; i++ {
			if err := a.Send(&Message{From: 0, To: 1, Kind: 5, Payload: tcpPayload{N: i, S: "abc"}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ {
			select {
			case <-got:
			case <-time.After(2 * time.Second):
				t.Fatal("delivery timeout")
			}
		}
		as, bs := a.Stats(), b.Stats()
		if as.MsgsSent != 4 || bs.MsgsRecv != 4 {
			t.Fatalf("msgs: sent=%d recv=%d, want 4/4", as.MsgsSent, bs.MsgsRecv)
		}
		if as.BytesSent == 0 || bs.BytesRecv == 0 {
			t.Fatalf("bytes not counted: sent=%d recv=%d", as.BytesSent, bs.BytesRecv)
		}
	})
}

// TestTCPConcurrentSendersManyMessages: hammer one connection from many
// goroutines; every message must arrive intact (framing under coalescing
// is race-free).
func TestTCPConcurrentSendersManyMessages(t *testing.T) {
	a, b := newTCPPairOpts(t, TCPOptions{Codec: CodecBinary})

	const senders, per = 8, 50
	var mu sync.Mutex
	seen := make(map[string]bool)
	done := make(chan struct{})
	b.SetHandler(func(m *Message) {
		p := m.Payload.(tcpPayload)
		mu.Lock()
		seen[p.S] = true
		if len(seen) == senders*per {
			close(done)
		}
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("s%d/m%d", s, i)
				if err := a.Send(&Message{From: 0, To: 1, Kind: 1, Payload: tcpPayload{S: key}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		mu.Lock()
		t.Fatalf("only %d/%d messages arrived", len(seen), senders*per)
	}
}
