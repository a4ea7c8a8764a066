// Package testbed is the one place outside bench/ where a D-STM cluster is
// assembled and driven. The paper's evaluation has one shape — N nodes, one
// scheduler per node, one application, workers issuing operations — and
// every caller (rtsbench's paper cells, the chaos suite, the dstmnode
// daemon, the public facade and through it the examples) gets that shape
// from here: New wires the fabric, endpoints, stats tables, schedulers and
// runtimes; Setup seeds an application; Drive runs the closed or open op
// loop and checks what it left behind; Finish replays the trace through the
// oracle. Run is that sequence for one in-process cell, with the directory
// check between Drive and Finish, and PaperCell holds the paper's defaults
// for one. bench/ keeps its own copy until ROADMAP item 5(a) makes it
// import this package.
package testbed

import (
	"context"
	"fmt"
	"net"
	"time"

	"dstm/internal/apps"
	"dstm/internal/cluster"
	"dstm/internal/core"
	"dstm/internal/sched"
	"dstm/internal/stats"
	"dstm/internal/stm"
	"dstm/internal/trace"
	"dstm/internal/transport"
	"dstm/internal/vclock"
	"dstm/internal/workload"
)

// Scheduler names the transactional scheduler every node runs.
type Scheduler string

// The three schedulers the paper compares.
const (
	RTS     Scheduler = "RTS"
	TFA     Scheduler = "TFA"
	Backoff Scheduler = "TFA+Backoff"
)

// Schedulers lists them in the paper's reporting order.
var Schedulers = []Scheduler{RTS, TFA, Backoff}

// lossyRetry is every endpoint's RPC retry policy in a run that injects
// faults: retransmissions paced to in-memory link delays, not the 2 s
// per-try timeout of cluster.DefaultRetryPolicy that the others keep.
var lossyRetry = cluster.RetryPolicy{
	PerTryTimeout: 30 * time.Millisecond,
	BaseBackoff:   2 * time.Millisecond,
	MaxBackoff:    20 * time.Millisecond,
}

// Options describes one cluster and the load Drive offers it. Callers own
// their defaults; New fills only Seed and MaxPending.
type Options struct {
	Nodes int   // cluster size
	Seed  int64 // every random stream of the run derives from it; 0 means 1

	// Transport selects the fabric: "memnet" (default, the in-process
	// network under the Latency model; nil means no delay) or "tcp" (real
	// loopback sockets, one per node). With Peers set the process is node
	// Self of a TCP cluster whose other nodes run elsewhere: Nodes is
	// len(Peers) and Rts holds that one runtime. Fault injection and the
	// latency model require memnet.
	Transport string
	Latency   transport.LatencyModel
	Peers     map[transport.NodeID]string
	Self      transport.NodeID

	// Scheduler and its knobs. CLThreshold, AdaptiveCL and CLWindow are
	// RTS's (zero values mean core's defaults); BackoffCap bounds
	// TFA+Backoff's stall (0 means sched.NewBackoff's default).
	Scheduler   Scheduler
	CLThreshold int
	AdaptiveCL  bool
	CLWindow    time.Duration
	BackoffCap  time.Duration

	// FlatNesting inlines inner atomic blocks into their parents (the
	// paper's flat-nesting contrast case) instead of closed nesting.
	FlatNesting bool

	// Fault rates of the seeded transport.FaultModel that Drive installs
	// for its window — Setup always runs over a reliable network. Zero
	// rates keep the lossless network the paper assumes. See DESIGN.md
	// "Fault model". Any fault, crashes included, puts every endpoint on
	// lossyRetry.
	Drop          float64
	Duplicate     float64
	Reorder       float64
	MaxExtraDelay time.Duration

	// Crash schedule, run by Drive: every CrashEvery a random node, node 0
	// included, crashes (drops off the network) for half of CrashEvery,
	// then restarts. CrashEvery 0 disables crashes.
	CrashEvery time.Duration

	// Trace records protocol events on every node from before Setup, so
	// the oracle Finish runs sees complete state. TraceCap is each node's
	// ring capacity (0 = trace.DefaultCapacity); a wrapped ring downgrades
	// the check to the truncated-trace invariants. TracePath, when set,
	// receives the merged trace as JSONL.
	Trace     bool
	TraceCap  int
	TracePath string

	// The load. WorkersPerNode workers on every node of Rts serve
	// operations for Duration, a ReadRatio fraction of them reads, keys
	// drawn by KeyPicker (nil keeps the application's uniform draws).
	// Arrival nil is the closed loop: each worker issues its next
	// operation when the previous one returns. Otherwise operations arrive
	// on Arrival's absolute schedule whatever the completions, into one
	// admission queue of MaxPending (0 means 4096) that sheds when full.
	WorkersPerNode int
	Duration       time.Duration
	ReadRatio      float64
	KeyPicker      apps.KeyPicker
	Arrival        workload.Arrival
	MaxPending     int
}

// PaperCell is the paper's cell before its caller picks the nodes,
// scheduler, read ratio and window: the 1–50 ms link band (paper §IV-A)
// scaled by scale and seeded from seed, and 8 workers per node. Every time
// constant scales with the link delays (DESIGN §8): RTS's CL window and
// TFA+Backoff's stall cap span a few transaction lifetimes, 500 ms at full
// scale, and never drop below 1 ms so timers stay meaningful.
func PaperCell(scale float64, seed int64) Options {
	window := max(time.Duration(float64(500*time.Millisecond)*scale), time.Millisecond)
	return Options{
		Seed:           seed,
		Latency:        transport.MetricLatency{Min: time.Millisecond, Max: 50 * time.Millisecond, Scale: scale, Seed: uint64(seed)},
		CLWindow:       window,
		BackoffCap:     window,
		WorkersPerNode: 8,
	}
}

// faulty reports whether any fault-injection rate or a crash schedule is set.
func (o Options) faulty() bool {
	return o.Drop > 0 || o.Duplicate > 0 || o.Reorder > 0 || o.CrashEvery > 0
}

// newPolicy is the one scheduler-name → policy constructor. st is the table
// the node's runtime records commits into, so TFA+Backoff scales its stall
// by the profile's measured execution time on every caller's cluster.
func newPolicy(o Options, st *stats.Table) (sched.Policy, error) {
	switch o.Scheduler {
	case RTS:
		return core.New(core.Options{
			CLThreshold: o.CLThreshold,
			Adaptive:    o.AdaptiveCL,
			CLWindow:    o.CLWindow,
		}), nil
	case TFA:
		return sched.NewTFA(), nil
	case Backoff:
		return sched.NewBackoff(st, o.BackoffCap), nil
	default:
		return nil, fmt.Errorf("testbed: unknown scheduler %q", o.Scheduler)
	}
}

// Cluster is an assembled cluster.
type Cluster struct {
	// Rts are this process's runtimes, indexed by node ID unless
	// Options.Peers made it one node of a larger cluster.
	Rts []*stm.Runtime

	// net and faults exist on memnet only. faults is built from the
	// configured rates and crash schedule and stays dormant until Drive
	// installs it.
	net    *transport.Network
	faults *transport.FaultModel

	opts      Options
	tcps      []*transport.TCPNode
	recorders []*trace.Recorder
}

// New assembles the cluster o describes. Call Close (or Finish) when done.
func New(o Options) (*Cluster, error) {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 4096
	}
	if o.Peers != nil {
		o.Transport, o.Nodes = "tcp", len(o.Peers)
	}
	c := &Cluster{opts: o}
	var fabric []transport.Transport
	switch o.Transport {
	case "", "memnet":
		c.net = transport.NewNetwork(o.Latency)
		c.faults = transport.NewFaultModel(transport.FaultConfig{
			Seed:          uint64(o.Seed),
			Drop:          o.Drop,
			Duplicate:     o.Duplicate,
			Reorder:       o.Reorder,
			MaxExtraDelay: o.MaxExtraDelay,
		})
		for i := 0; i < o.Nodes; i++ {
			fabric = append(fabric, c.net.Endpoint(transport.NodeID(i)))
		}
	case "tcp":
		if o.faulty() {
			return nil, fmt.Errorf("testbed: fault injection requires the memnet transport")
		}
		if err := c.listenTCP(); err != nil {
			c.Close()
			return nil, err
		}
		for _, tn := range c.tcps {
			fabric = append(fabric, tn)
		}
	default:
		return nil, fmt.Errorf("testbed: unknown transport %q", o.Transport)
	}
	for _, tr := range fabric {
		st := stats.NewTable(time.Millisecond)
		pol, err := newPolicy(o, st)
		if err != nil {
			c.Close()
			return nil, err
		}
		clk := &vclock.Clock{}
		ep := cluster.NewEndpoint(tr, clk)
		if o.faulty() {
			ep.SetRetryPolicy(lossyRetry)
		}
		rt := stm.NewRuntime(ep, o.Nodes, pol, st)
		if o.Trace {
			rec := trace.NewRecorder(tr.Self(), o.TraceCap, clk.Now)
			rt.SetTracer(rec)
			c.recorders = append(c.recorders, rec)
		}
		if o.FlatNesting {
			rt.SetNesting(stm.FlatNesting)
		}
		c.Rts = append(c.Rts, rt)
	}
	return c, nil
}

// listenTCP opens this process's TCP nodes: the one Options.Peers assigns
// it, or all Nodes on loopback ports the kernel picks.
func (c *Cluster) listenTCP() error {
	o := c.opts
	if o.Peers != nil {
		listen, ok := o.Peers[o.Self]
		if !ok {
			return fmt.Errorf("testbed: node %d is not among the peers", o.Self)
		}
		tn, err := transport.NewTCPNode(o.Self, listen, o.Peers)
		if err != nil {
			return fmt.Errorf("testbed: tcp node %d: %w", o.Self, err)
		}
		c.tcps = append(c.tcps, tn)
		return nil
	}
	peers := make(map[transport.NodeID]string, o.Nodes)
	for i := 0; i < o.Nodes; i++ {
		tn, err := transport.NewTCPNode(transport.NodeID(i), "127.0.0.1:0", nil)
		if err != nil {
			return fmt.Errorf("testbed: tcp node %d: %w", i, err)
		}
		c.tcps = append(c.tcps, tn)
		peers[transport.NodeID(i)] = tn.Addr()
	}
	for _, tn := range c.tcps {
		tn.SetPeers(peers)
	}
	return nil
}

// peerWait bounds how long a node of a multi-process cluster waits for its
// peers to listen (awaitPeers).
const peerWait = 10 * time.Second

// awaitPeers returns once every other node of Options.Peers accepts a
// connection, polling for up to peerWait: a node's objects are homed all
// over the cluster, so it can seed them only once every home listens. An
// in-process cluster listens from New on and returns at once.
func (c *Cluster) awaitPeers(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, peerWait)
	defer cancel()
	var d net.Dialer
	for id, addr := range c.opts.Peers {
		if id == c.opts.Self {
			continue
		}
		for {
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err == nil {
				conn.Close()
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("node %d at %s does not listen: %w", id, addr, err)
			case <-time.After(50 * time.Millisecond):
			}
		}
	}
	return nil
}

// Close shuts the fabric. It is idempotent.
func (c *Cluster) Close() {
	if c.net != nil {
		c.net.Close()
	}
	for _, tn := range c.tcps {
		tn.Close()
	}
}
