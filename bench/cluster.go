package main

import (
	"fmt"
	"time"

	"dstm/internal/cluster"
	"dstm/internal/core"
	"dstm/internal/sched"
	"dstm/internal/stm"
	"dstm/internal/trace"
	"dstm/internal/transport"
	"dstm/internal/vclock"
)

// testbed is the cluster under test: four in-process nodes assembled as
// dstm.NewLocalCluster(ClusterOptions{Nodes: 4}) assembles them — RTS
// with default options, closed nesting, every runtime knob at its zero
// value — so a later change of a default shows here. Only the fabric
// differs per workload. The bench adds a transport tap per node and, on
// a traced run, a scheduler tap and the repo's trace recorder.
type testbed struct {
	hub       *hub
	net       *transport.Network   // memnet fabrics
	tcps      []*transport.TCPNode // TCP fabric
	rts       []*stm.Runtime
	pstats    *policyStats      // traced runs only
	recorders []*trace.Recorder // traced runs only
}

// newTestbed builds the cluster. traceCap > 0 makes it a traced run with
// a recorder ring of that many events per node. tfa swaps RTS for the
// TFA baseline (the core.rts_over_tfa_p50 comparison only).
func newTestbed(f fabric, traceCap int, tfa bool) (*testbed, error) {
	traced := traceCap > 0
	tb := &testbed{hub: newHub(traced)}
	switch f {
	case memnet1ms:
		tb.net = transport.NewNetwork(transport.UniformLatency(time.Millisecond))
	case memnetZero:
		tb.net = transport.NewNetwork(transport.ZeroLatency{})
	case loopbackTC:
		peers := make(map[transport.NodeID]string, nodes)
		for i := 0; i < nodes; i++ {
			tn, err := transport.NewTCPNodeOpts(transport.NodeID(i), "127.0.0.1:0", nil,
				transport.TCPOptions{Codec: transport.CodecBinary})
			if err != nil {
				tb.close()
				return nil, fmt.Errorf("tcp node %d: %w", i, err)
			}
			tb.tcps = append(tb.tcps, tn)
			peers[transport.NodeID(i)] = tn.Addr()
		}
		for _, tn := range tb.tcps {
			tn.SetPeers(peers)
		}
	}
	if traced {
		tb.pstats = &policyStats{}
	}
	for i := 0; i < nodes; i++ {
		var tr transport.Transport
		if tb.net != nil {
			tr = tb.net.Endpoint(transport.NodeID(i))
		} else {
			tr = tb.tcps[i]
		}
		var pol sched.Policy = core.New(core.Options{})
		if tfa {
			pol = sched.NewTFA()
		}
		if traced {
			pol = &policyTap{Policy: pol, stats: tb.pstats}
		}
		clk := &vclock.Clock{}
		ep := cluster.NewEndpoint(&tap{Transport: tr, hub: tb.hub}, clk)
		rt := stm.NewRuntime(ep, nodes, pol, nil)
		if traced {
			rec := trace.NewRecorder(transport.NodeID(i), traceCap, clk.Now)
			rt.SetTracer(rec)
			tb.recorders = append(tb.recorders, rec)
		}
		tb.rts = append(tb.rts, rt)
	}
	return tb, nil
}

// close tears the fabric down and waits for its goroutines.
func (tb *testbed) close() {
	if tb.net != nil {
		tb.net.Close()
	}
	for _, tn := range tb.tcps {
		tn.Close()
	}
}

// wire sums the TCP counters of all nodes (zero on memnet).
func (tb *testbed) wire() transport.WireStats {
	var t transport.WireStats
	for _, tn := range tb.tcps {
		s := tn.Stats()
		t.MsgsSent += s.MsgsSent
		t.BytesSent += s.BytesSent
		t.Writes += s.Writes
	}
	return t
}

// stmMetrics merges the runtimes' transaction counters.
func (tb *testbed) stmMetrics() stm.MetricsSnapshot {
	var total stm.MetricsSnapshot
	for _, rt := range tb.rts {
		total.Merge(rt.Metrics().Snapshot())
	}
	return total
}

// queueDepth is the number of requesters parked in the schedulers.
func (tb *testbed) queueDepth() int {
	total := 0
	for _, rt := range tb.rts {
		if q, ok := rt.Policy().(sched.QueueDepther); ok {
			total += q.QueueDepth()
		}
	}
	return total
}

// traceEvents is how many events the recorders hold and how many they
// dropped to ring wrap.
func (tb *testbed) traceEvents() (held, dropped int64) {
	for _, rec := range tb.recorders {
		held += int64(rec.Len())
		dropped += int64(rec.Dropped())
	}
	return held, dropped
}
