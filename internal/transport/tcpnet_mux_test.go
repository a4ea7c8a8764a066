package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dstm/internal/wire"
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

// TestTCPWriteCoalescing: frames that concurrent senders queue while a write
// is in flight share the next write syscall. The connection is a net.Pipe,
// whose Write returns only once the far end has read it all, so the first
// write stays in flight until the test starts reading.
func TestTCPWriteCoalescing(t *testing.T) {
	near, far := net.Pipe()
	n := &TCPNode{conns: make(map[NodeID]*tcpConn)}
	tc := n.newBinaryConn(near)
	stopped := make(chan struct{})
	go func() { defer close(stopped); n.writeLoop(1, tc) }()
	defer func() { tc.shutdown(); far.Close(); <-stopped }()

	send := func(i int) {
		if err := n.sendBinary(&Message{From: 0, To: 1, Kind: 2, Corr: uint64(i), Payload: tcpPayload{N: i}}, tc); err != nil {
			t.Error(err)
		}
	}
	send(0)
	// The writer counts a write before issuing it, so once it has counted
	// one, frame 0 is out of the buffer and its write cannot finish yet.
	for deadline := time.Now().Add(2 * time.Second); n.writes.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the writer never took the first frame")
		}
	}
	const senders, per = 8, 25
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for j := 1; j <= per; j++ {
				send(s*per + j)
			}
		}(s)
	}
	wg.Wait()

	seen := make(map[uint64]bool)
	br := bufio.NewReader(far)
	r := wire.NewReader(nil)
	for len(seen) < 1+senders*per {
		var lenb [4]byte
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, binary.BigEndian.Uint32(lenb[:]))
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatal(err)
		}
		var m Message
		r.Reset(body)
		if err := DecodeMessage(r, &m); err != nil || m.Payload != (tcpPayload{N: int(m.Corr)}) || seen[m.Corr] {
			t.Fatalf("frame %+v (decode error %v): corrupt or repeated", m, err)
		}
		seen[m.Corr] = true
	}
	if w := n.writes.Load(); w != 2 {
		t.Fatalf("%d writes for one frame and %d frames queued behind it, want 2", w, senders*per)
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
