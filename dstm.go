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
//   - internal/testbed — the one cluster assembly (fabric, endpoints,
//     stats tables, schedulers, runtimes) and the one op loop, closed or
//     open, with its invariant check and trace oracle, and the paper's
//     cell defaults (PaperCell);
//   - cmd/rtsbench — the paper's experiments on top of it: Table I and
//     Figures 4–6 as one grid of cells.
//
// This package offers a small facade over internal/testbed for assembling
// a local (in-process, latency-simulated) cluster; see NewLocalCluster, and
// the examples under examples/, which all start from it.
package dstm

import (
	"time"

	"dstm/internal/stm"
	"dstm/internal/testbed"
	"dstm/internal/transport"
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
type Cluster struct{ c *testbed.Cluster }

// NewLocalCluster assembles an in-process cluster. It panics on a
// SchedulerKind that is none of the three above.
func NewLocalCluster(opts ClusterOptions) *Cluster {
	o := testbed.Options{
		Nodes:       opts.Nodes,
		Scheduler:   testbed.Scheduler(opts.Scheduler),
		CLThreshold: opts.CLThreshold,
	}
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	if o.Scheduler == "" {
		o.Scheduler = testbed.RTS
	}
	if opts.LatencyMax > 0 {
		o.Latency = transport.MetricLatency{
			Min:   opts.LatencyMin,
			Max:   opts.LatencyMax,
			Scale: opts.LatencyScale,
		}
	}
	c, err := testbed.New(o)
	if err != nil {
		panic(err)
	}
	return &Cluster{c: c}
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.c.Rts) }

// Runtime returns node i's D-STM runtime (start transactions with its
// Atomic method).
func (c *Cluster) Runtime(i int) *stm.Runtime { return c.c.Rts[i] }

// Runtimes returns all runtimes, indexed by node ID.
func (c *Cluster) Runtimes() []*stm.Runtime { return c.c.Rts }

// Close tears the cluster's network down.
func (c *Cluster) Close() { c.c.Close() }
