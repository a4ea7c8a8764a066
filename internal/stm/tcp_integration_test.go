package stm

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dstm/internal/cluster"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
	"dstm/internal/vclock"
	"dstm/internal/wire"
)

// Test-only wire type IDs (90–99 are never assigned outside tests): values
// crossing the TCP transport need a codec.
const (
	wireIDBox  wire.ID = 96
	wireIDPair wire.ID = 97
)

func init() {
	wire.Register(wireIDBox, &box{})
	wire.Register(wireIDPair, &pair{})
}

func (b *box) AppendWire(buf []byte) ([]byte, error) { return wire.AppendVarint(buf, b.N), nil }

func (*box) ReadWire(r *wire.Reader) any { return &box{N: r.Varint()} }

func (p *pair) AppendWire(b []byte) ([]byte, error) {
	return wire.AppendVarint(wire.AppendVarint(b, p.A), p.B), nil
}

func (*pair) ReadWire(r *wire.Reader) any { return &pair{A: r.Varint(), B: r.Varint()} }

// newTCPCluster builds n runtimes over real TCP on loopback.
func newTCPCluster(t *testing.T, n int) []*Runtime {
	t.Helper()
	nodes := make([]*transport.TCPNode, n)
	peers := make(map[transport.NodeID]string, n)
	for i := 0; i < n; i++ {
		tn, err := transport.NewTCPNode(transport.NodeID(i), "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = tn
		peers[transport.NodeID(i)] = tn.Addr()
	}
	rts := make([]*Runtime, n)
	for i, tn := range nodes {
		tn.SetPeers(peers)
		ep := cluster.NewEndpoint(tn, &vclock.Clock{})
		rts[i] = NewRuntime(ep, n, sched.NewTFA(), nil)
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.Close()
		}
	})
	return rts
}

// TestTCPEndToEnd runs the full stack — directory, retrieval, nesting,
// commit-time migration — over real sockets.
func TestTCPEndToEnd(t *testing.T) {
	rts := newTCPCluster(t, 3)
	ctx := context.Background()

	for i := 0; i < 6; i++ {
		oid := object.ID(fmt.Sprintf("acct/%d", i))
		if err := rts[i%3].CreateRoot(ctx, oid, &box{N: 100}); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent nested transfers from every node.
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for n := 0; n < 3; n++ {
		wg.Add(1)
		go func(rt *Runtime, n int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				from := object.ID(fmt.Sprintf("acct/%d", (n+j)%6))
				to := object.ID(fmt.Sprintf("acct/%d", (n+j+3)%6))
				err := rt.Atomic(ctx, "xfer", func(tx *Txn) error {
					return tx.Atomic(ctx, "move", func(c *Txn) error {
						if err := c.Update(ctx, from, func(v object.Value) object.Value {
							v.(*box).N -= 3
							return v
						}); err != nil {
							return err
						}
						return c.Update(ctx, to, func(v object.Value) object.Value {
							v.(*box).N += 3
							return v
						})
					})
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(rts[n], n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var total int64
	err := rts[1].Atomic(ctx, "audit", func(tx *Txn) error {
		total = 0
		for i := 0; i < 6; i++ {
			v, err := tx.Read(ctx, object.ID(fmt.Sprintf("acct/%d", i)))
			if err != nil {
				return err
			}
			total += v.(*box).N
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 600 {
		t.Fatalf("total = %d over TCP, want 600", total)
	}
}
