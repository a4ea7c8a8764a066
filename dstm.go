// Package dstm is a Go implementation of dataflow distributed software
// transactional memory (D-STM) with closed-nested transactions and the
// Reactive Transactional Scheduler (RTS) of Kim & Ravindran,
// "Scheduling Closed-Nested Transactions in Distributed Transactional
// Memory", IPDPS 2012.
//
// The stack, bottom to top:
//
//   - internal/transport — message passing: an in-memory latency-modelled
//     network and a TCP transport (the binary codec of internal/wire);
//   - internal/cluster — RPC with correlation and TFA clock piggybacking;
//   - internal/cc — the cache-coherence directory (home nodes, single
//     writable copy, ownership migration);
//   - internal/stm — the TFA engine: transactions, closed nesting,
//     transactional forwarding, commit-time validation;
//   - internal/core — RTS, the paper's contribution: contention-level
//     tracking and the enqueue-vs-abort conflict policy;
//   - internal/sched — the TFA and TFA+Backoff baseline policies;
//   - internal/apps — the six benchmarks (Vacation, Bank, Linked-List,
//     BST, RB-Tree, DHT);
//   - internal/harness — experiment driver reproducing the paper's
//     Table I and Figures 4–6.
//
// This package offers a small facade for assembling a local (in-process,
// latency-simulated) cluster; see NewLocalCluster. For full control use
// the internal packages directly, as the examples under examples/ do.
package dstm

import (
	"time"

	"dstm/internal/cluster"
	"dstm/internal/core"
	"dstm/internal/sched"
	"dstm/internal/stm"
	"dstm/internal/transport"
	"dstm/internal/vclock"
)

// SchedulerKind selects a node's transactional scheduler.
type SchedulerKind string

// Available schedulers.
const (
	RTS        SchedulerKind = "RTS"
	TFA        SchedulerKind = "TFA"
	TFABackoff SchedulerKind = "TFA+Backoff"
)

// ClusterOptions configures NewLocalCluster.
type ClusterOptions struct {
	// Nodes is the cluster size. 0 means 4.
	Nodes int
	// Scheduler is the per-node conflict policy. Empty means RTS.
	Scheduler SchedulerKind
	// CLThreshold is RTS's contention-level threshold. 0 means the
	// paper's default.
	CLThreshold int
	// LatencyMin/LatencyMax bound the per-link one-way delays (the paper
	// uses 1–50 ms). Zero values mean a zero-latency network.
	LatencyMin, LatencyMax time.Duration
	// LatencyScale rescales the band (e.g. 0.01 turns 1–50 ms into
	// 10–500 µs). 0 means 1.0.
	LatencyScale float64
}

// Cluster is a set of in-process D-STM nodes joined by a simulated
// network.
type Cluster struct {
	net      *transport.Network
	runtimes []*stm.Runtime
}

// NewLocalCluster assembles an in-process cluster.
func NewLocalCluster(opts ClusterOptions) *Cluster {
	if opts.Nodes <= 0 {
		opts.Nodes = 4
	}
	var lat transport.LatencyModel = transport.ZeroLatency{}
	if opts.LatencyMax > 0 {
		lat = transport.MetricLatency{
			Min:   opts.LatencyMin,
			Max:   opts.LatencyMax,
			Scale: opts.LatencyScale,
		}
	}
	net := transport.NewNetwork(lat)
	c := &Cluster{net: net}
	for i := 0; i < opts.Nodes; i++ {
		var pol sched.Policy
		switch opts.Scheduler {
		case TFA:
			pol = sched.NewTFA()
		case TFABackoff:
			pol = sched.NewBackoff(nil, 50*time.Millisecond)
		default:
			pol = core.New(core.Options{CLThreshold: opts.CLThreshold})
		}
		ep := cluster.NewEndpoint(net.Endpoint(transport.NodeID(i)), &vclock.Clock{})
		c.runtimes = append(c.runtimes, stm.NewRuntime(ep, opts.Nodes, pol, nil))
	}
	return c
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.runtimes) }

// Runtime returns node i's D-STM runtime (start transactions with its
// Atomic method).
func (c *Cluster) Runtime(i int) *stm.Runtime { return c.runtimes[i] }

// Runtimes returns all runtimes, indexed by node ID.
func (c *Cluster) Runtimes() []*stm.Runtime { return c.runtimes }

// Close tears the cluster's network down.
func (c *Cluster) Close() { c.net.Close() }
