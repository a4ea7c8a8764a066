package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"dstm/internal/wire"
)

// Codec names the TCP wire format. It has one value: the type, its constant
// and TCPOptions.Codec survive only because bench/cluster.go (frozen for
// non-benchmark changes) names them; a benchmark change removes all three.
type Codec uint8

// CodecBinary is the hand-rolled zero-allocation wire codec with connection
// multiplexing and write coalescing — the only TCP codec.
const CodecBinary Codec = 0

// TCPOptions holds nothing that changes a TCPNode; it survives, like Codec,
// only because bench/cluster.go names it.
type TCPOptions struct {
	// Codec is always CodecBinary; see the Codec type.
	Codec Codec
}

// maxBuffered is the per-connection soft cap, in bytes, on coalesced frames
// awaiting the writer; Send blocks (backpressure) while the buffer is over
// it.
const maxBuffered = 1 << 20

// WireStats counts a node's TCP traffic. Writes is the number of write
// syscalls issued, so BytesSent/Writes exposes the coalescing factor.
type WireStats struct {
	MsgsSent  uint64
	BytesSent uint64
	MsgsRecv  uint64
	BytesRecv uint64
	Writes    uint64
	Dials     uint64
}

// maxFrame bounds an inbound frame's claimed size: a malformed or
// hostile peer must not be able to force an unbounded allocation.
const maxFrame = 16 << 20

// helloMagic opens every dialled binary-codec connection, followed by a
// version byte and the dialler's node ID, so the acceptor can register
// the connection for its own outbound traffic (one multiplexed
// connection per peer pair instead of one per direction).
var helloMagic = [4]byte{'D', 'S', 'T', 'M'}

// TCPNode is a Transport over real TCP sockets. It lets the same D-STM
// stack run as one OS process per node (see cmd/dstmnode).
//
// Each peer pair shares one multiplexed connection (replies and pushes
// reuse the connection the requester dialled; correlation IDs at the
// cluster layer demultiplex), frames are encoded with the zero-allocation
// wire codec straight into a per-connection coalescing buffer, and a writer
// goroutine batches queued frames into single write syscalls. A payload
// crosses only if its type has a wire codec (wire.Register): Send reports
// one that has none, and the connection carries on.
type TCPNode struct {
	id    NodeID
	ln    net.Listener
	peers map[NodeID]string

	handler atomic.Value // Handler

	mu       sync.Mutex
	conns    map[NodeID]*tcpConn
	accepted map[net.Conn]struct{}
	closed   bool

	msgsSent  atomic.Uint64
	bytesSent atomic.Uint64
	msgsRecv  atomic.Uint64
	bytesRecv atomic.Uint64
	writes    atomic.Uint64
	dials     atomic.Uint64

	wg sync.WaitGroup
}

// tcpConn is one established connection used for sending: writes go
// through the coalescing buffer and the writer goroutine.
type tcpConn struct {
	c net.Conn

	mu   sync.Mutex
	cond *sync.Cond

	pending []byte // frames encoded, awaiting the writer
	spare   []byte // recycled buffer for the next batch
	queued  int    // frames in pending
	werr    error  // first write error; conn is dead once set
	closed  bool
}

// NewTCPNodeOpts is NewTCPNode; see TCPOptions.
func NewTCPNodeOpts(id NodeID, listenAddr string, peers map[NodeID]string, _ TCPOptions) (*TCPNode, error) {
	return NewTCPNode(id, listenAddr, peers)
}

// NewTCPNode starts listening on listenAddr and will dial peers lazily.
// peers maps every cluster node (including self, ignored) to its address.
func NewTCPNode(id NodeID, listenAddr string, peers map[NodeID]string) (*TCPNode, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", listenAddr, err)
	}
	n := &TCPNode{
		id:       id,
		ln:       ln,
		peers:    peers,
		conns:    make(map[NodeID]*tcpConn),
		accepted: make(map[net.Conn]struct{}),
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the bound listen address (useful with ":0").
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// SetPeers installs (or replaces) the peer address table. Peers are dialled
// lazily, so the table may be set any time before the first Send to a given
// node — convenient when all nodes bind ":0" ports first and exchange
// addresses afterwards.
func (n *TCPNode) SetPeers(peers map[NodeID]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers = peers
}

// Self implements Transport.
func (n *TCPNode) Self() NodeID { return n.id }

// SetHandler implements Transport.
func (n *TCPNode) SetHandler(h Handler) { n.handler.Store(h) }

// Stats returns a snapshot of the node's wire traffic counters.
func (n *TCPNode) Stats() WireStats {
	return WireStats{
		MsgsSent:  n.msgsSent.Load(),
		BytesSent: n.bytesSent.Load(),
		MsgsRecv:  n.msgsRecv.Load(),
		BytesRecv: n.bytesRecv.Load(),
		Writes:    n.writes.Load(),
		Dials:     n.dials.Load(),
	}
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.accepted[c] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serveConn(c)
	}
}

// serveConn handles one accepted connection: it reads the hello, registers
// the connection for outbound traffic to that peer (the multiplexing
// half), then enters the frame read loop.
func (n *TCPNode) serveConn(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.accepted, c)
		n.mu.Unlock()
		c.Close()
	}()

	br := bufio.NewReaderSize(c, 64<<10)
	peer, err := readHello(br)
	if err != nil {
		return
	}
	// Multiplex: reuse this inbound connection for our own sends to the
	// peer, so a pair of nodes converses over one connection. If we
	// already have one (e.g. both sides dialled at once), keep ours for
	// sending and just read from this one.
	tc := n.newBinaryConn(c)
	registered := false
	n.mu.Lock()
	if !n.closed {
		if _, exists := n.conns[peer]; !exists {
			n.conns[peer] = tc
			registered = true
		}
	}
	n.mu.Unlock()
	if registered {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.writeLoop(peer, tc)
		}()
	}

	n.readLoopBinary(br)

	if registered {
		n.dropConn(peer, tc)
	} else {
		tc.shutdown()
	}
}

// readHello consumes the dial preamble and returns the peer's node ID.
func readHello(br *bufio.Reader) (NodeID, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, err
	}
	if [4]byte(hdr[:4]) != helloMagic || hdr[4] != frameVersion {
		return 0, fmt.Errorf("tcpnet: bad hello")
	}
	return NodeID(int32(binary.BigEndian.Uint32(hdr[5:9]))), nil
}

// appendHello writes the dial preamble for this node.
func (n *TCPNode) appendHello(b []byte) []byte {
	b = append(b, helloMagic[:]...)
	b = append(b, frameVersion)
	return binary.BigEndian.AppendUint32(b, uint32(int32(n.id)))
}

// readLoopBinary decodes length-prefixed binary frames until the
// connection breaks. The frame buffer and wire.Reader (with its string
// intern table) are reused across messages; only the Message struct and
// payload escape to the handler.
func (n *TCPNode) readLoopBinary(br *bufio.Reader) {
	var lenb [4]byte
	var body []byte
	r := wire.NewReader(nil)
	for {
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(lenb[:])
		if size > maxFrame {
			return // hostile or corrupt peer; drop the connection
		}
		if cap(body) < int(size) {
			body = make([]byte, size)
		}
		body = body[:size]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		n.msgsRecv.Add(1)
		n.bytesRecv.Add(uint64(size) + 4)
		m := &Message{}
		r.Reset(body)
		if err := DecodeMessage(r, m); err != nil {
			return // malformed frame; drop the connection
		}
		if h, _ := n.handler.Load().(Handler); h != nil {
			h(m)
		}
	}
}

// Send implements Transport.
func (n *TCPNode) Send(m *Message) error {
	tc, err := n.conn(m.To)
	if err != nil {
		return err
	}
	return n.sendBinary(m, tc)
}

// sendBinary encodes m straight into the connection's coalescing buffer
// (4-byte big-endian length prefix, then the frame body) and wakes the
// writer. It blocks briefly for backpressure when the buffer is over
// maxBuffered.
func (n *TCPNode) sendBinary(m *Message, tc *tcpConn) error {
	tc.mu.Lock()
	for len(tc.pending) > maxBuffered && tc.werr == nil && !tc.closed {
		tc.cond.Wait()
	}
	if tc.werr != nil || tc.closed {
		err := tc.werr
		tc.mu.Unlock()
		n.dropConn(m.To, tc)
		if err == nil {
			err = net.ErrClosed
		}
		return fmt.Errorf("tcpnet: send to node %d: %w", m.To, err)
	}
	// Reserve the length prefix, encode the body, then patch the length.
	start := len(tc.pending)
	tc.pending = append(tc.pending, 0, 0, 0, 0)
	var err error
	tc.pending, err = AppendMessage(tc.pending, m)
	if err != nil {
		tc.pending = tc.pending[:start]
		tc.mu.Unlock()
		return fmt.Errorf("tcpnet: send to node %d: %w", m.To, err)
	}
	body := len(tc.pending) - start - 4
	if body > maxFrame {
		tc.pending = tc.pending[:start]
		tc.mu.Unlock()
		return fmt.Errorf("tcpnet: send to node %d: frame of %d bytes exceeds limit", m.To, body)
	}
	binary.BigEndian.PutUint32(tc.pending[start:start+4], uint32(body))
	tc.queued++
	tc.cond.Broadcast()
	tc.mu.Unlock()
	n.msgsSent.Add(1)
	return nil
}

// writeLoop drains tc.pending into write syscalls. While a write is in
// flight new frames accumulate, so bursts coalesce into the next write.
func (n *TCPNode) writeLoop(to NodeID, tc *tcpConn) {
	tc.mu.Lock()
	for {
		for len(tc.pending) == 0 && !tc.closed && tc.werr == nil {
			tc.cond.Wait()
		}
		if tc.werr != nil || (tc.closed && len(tc.pending) == 0) {
			tc.mu.Unlock()
			return
		}
		buf := tc.pending
		tc.pending = tc.spare[:0]
		tc.spare = nil
		tc.queued = 0
		tc.mu.Unlock()

		// Count before the write: the receiver can deliver (and a caller can
		// read Stats) before Write returns here.
		n.writes.Add(1)
		n.bytesSent.Add(uint64(len(buf)))
		_, err := tc.c.Write(buf)

		tc.mu.Lock()
		tc.spare = buf[:0]
		if err != nil {
			tc.werr = err
			tc.cond.Broadcast()
			tc.mu.Unlock()
			n.dropConn(to, tc)
			return
		}
		tc.cond.Broadcast() // release senders blocked on backpressure
	}
}

// newBinaryConn wraps c for coalesced binary writes.
func (n *TCPNode) newBinaryConn(c net.Conn) *tcpConn {
	tc := &tcpConn{c: c}
	tc.cond = sync.NewCond(&tc.mu)
	return tc
}

// conn returns the established connection to `to`, dialling if needed.
func (n *TCPNode) conn(to NodeID) (*tcpConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if tc, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return tc, nil
	}
	addr, ok := n.peers[to]
	n.mu.Unlock()
	if !ok {
		return nil, ErrUnknownNode
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial node %d at %s: %w", to, addr, err)
	}
	n.dials.Add(1)

	tc := n.newBinaryConn(c)
	tc.pending = n.appendHello(tc.pending)

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	if existing, ok := n.conns[to]; ok {
		// Lost a dial race; keep the existing connection.
		n.mu.Unlock()
		c.Close()
		return existing, nil
	}
	n.conns[to] = tc
	n.mu.Unlock()

	// The dialled connection is bidirectional: the peer replies over it, so
	// read it too, and drain our writes to it.
	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		n.writeLoop(to, tc)
	}()
	go func() {
		defer n.wg.Done()
		defer func() { n.dropConn(to, tc); c.Close() }()
		n.readLoopBinary(bufio.NewReaderSize(c, 64<<10))
	}()
	return tc, nil
}

// dropConn removes tc from the send table (if still current) and closes
// the socket, releasing any goroutine blocked on it.
func (n *TCPNode) dropConn(to NodeID, tc *tcpConn) {
	n.mu.Lock()
	if cur, ok := n.conns[to]; ok && cur == tc {
		delete(n.conns, to)
	}
	n.mu.Unlock()
	tc.shutdown()
}

// shutdown marks the conn closed, wakes its writer and blocked senders,
// and closes the socket.
func (tc *tcpConn) shutdown() {
	tc.mu.Lock()
	tc.closed = true
	tc.cond.Broadcast()
	tc.mu.Unlock()
	tc.c.Close()
}

// Close implements Transport.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := n.conns
	n.conns = map[NodeID]*tcpConn{}
	accepted := make([]net.Conn, 0, len(n.accepted))
	for c := range n.accepted {
		accepted = append(accepted, c)
	}
	n.mu.Unlock()
	n.ln.Close()
	for _, tc := range conns {
		tc.shutdown()
	}
	// Close inbound connections too: Close must not depend on remote peers
	// shutting down first.
	for _, c := range accepted {
		c.Close()
	}
	n.wg.Wait()
	return nil
}
