// Package harness runs the paper's experiments: it picks one of the six
// benchmarks, fills in the paper's defaults (link-latency band, read ratio,
// per-node concurrency) and has internal/testbed assemble and drive the
// cluster, then turns the reports into throughput and abort-rate results —
// the raw material for Table I and Figures 4–6.
package harness

import (
	"context"
	"fmt"
	"time"

	"dstm/internal/apps"
	"dstm/internal/apps/bank"
	"dstm/internal/apps/dht"
	"dstm/internal/apps/list"
	"dstm/internal/apps/rbtree"
	"dstm/internal/apps/vacation"
	"dstm/internal/core"
	"dstm/internal/testbed"
	"dstm/internal/transport"
)

// Scheduler selects the transactional scheduler under test.
type Scheduler = testbed.Scheduler

// The three schedulers the paper compares.
const (
	SchedRTS     = testbed.RTS
	SchedTFA     = testbed.TFA
	SchedBackoff = testbed.Backoff
)

// Schedulers lists them in the paper's reporting order.
var Schedulers = testbed.Schedulers

// BenchmarkKind selects the application.
type BenchmarkKind string

// The six benchmarks, in the paper's reporting order.
const (
	BenchVacation BenchmarkKind = "vacation"
	BenchBank     BenchmarkKind = "bank"
	BenchList     BenchmarkKind = "ll"
	BenchRBTree   BenchmarkKind = "rbtree"
	BenchBST      BenchmarkKind = "bst"
	BenchDHT      BenchmarkKind = "dht"
)

// Benchmarks lists all six in reporting order.
var Benchmarks = []BenchmarkKind{BenchVacation, BenchBank, BenchList, BenchRBTree, BenchBST, BenchDHT}

// Config is one experiment cell: the cluster and load testbed.Options
// describes (Arrival set makes the cell open-loop), plus what the harness
// derives them from. Options.Latency is always the band below.
type Config struct {
	testbed.Options

	Benchmark      BenchmarkKind
	ObjectsPerNode int // paper: 5–10

	// Link latency band (paper: 1–50 ms) and the scale factor applied to
	// it so sweeps run quickly on one machine.
	LatMin, LatMax time.Duration
	DelayScale     float64
}

// withDefaults fills zero fields with usable values.
func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 4
	}
	if c.Scheduler == "" {
		c.Scheduler = SchedRTS
	}
	if c.Benchmark == "" {
		c.Benchmark = BenchBank
	}
	if c.ReadRatio <= 0 {
		c.ReadRatio = 0.9 // the paper's low contention; 0.1 is high
	}
	if c.WorkersPerNode <= 0 {
		c.WorkersPerNode = 8
	}
	if c.Duration <= 0 {
		c.Duration = 200 * time.Millisecond
	}
	if c.ObjectsPerNode <= 0 {
		c.ObjectsPerNode = 8
	}
	if c.LatMin <= 0 {
		c.LatMin = time.Millisecond
	}
	if c.LatMax <= 0 {
		c.LatMax = 50 * time.Millisecond
	}
	if c.DelayScale <= 0 {
		// 1–50 ms compressed to 10–500 µs.
		c.DelayScale = 0.01
	}
	if c.CLThreshold <= 0 {
		c.CLThreshold = core.DefaultCLThreshold
	}
	if c.CLWindow <= 0 {
		// The CL window should span a handful of transaction lifetimes.
		// Transaction lifetimes scale with the link delays, so derive the
		// window from the same scale factor (500 ms at full scale).
		c.CLWindow = scaled(500*time.Millisecond, c.DelayScale)
	}
	if c.BackoffCap <= 0 {
		// The stall cap must stay proportional to the (scaled) link
		// delays: the paper's baseline backs off on the order of a few
		// transaction lifetimes, not wall-clock constants.
		c.BackoffCap = scaled(500*time.Millisecond, c.DelayScale)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Latency = transport.MetricLatency{
		Min:   c.LatMin,
		Max:   c.LatMax,
		Scale: c.DelayScale,
		Seed:  uint64(c.Seed),
	}
	return c
}

// scaled applies the latency scale factor to a full-scale duration,
// clamping at 1 ms so timers stay meaningful.
func scaled(d time.Duration, scale float64) time.Duration {
	out := time.Duration(float64(d) * scale)
	if out < time.Millisecond {
		out = time.Millisecond
	}
	return out
}

// Result is one experiment cell: the defaulted config and testbed's report
// of the run (counters, operation accounting and sojourn samples, the
// application's CheckErr, and with Config.Trace the oracle's verdict).
type Result struct {
	Config Config
	testbed.Report
}

// Throughput is committed top-level transactions per second, cluster-wide.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Metrics.Commits) / r.Elapsed.Seconds()
}

// Err is the cell's verdict: the application's invariant check, then — with
// Config.Trace — the protocol oracle's. Every experiment fails on it.
func (r Result) Err() error {
	if r.CheckErr != nil {
		return fmt.Errorf("harness: %s invariant: %w", r.Config.Benchmark, r.CheckErr)
	}
	if r.ProtocolErr != nil {
		return fmt.Errorf("harness: %s protocol trace: %w", r.Config.Benchmark, r.ProtocolErr)
	}
	return nil
}

// NestedAbortRate is Table I's metric.
func (r Result) NestedAbortRate() float64 { return r.Metrics.NestedAbortRate() }

// newBenchmark builds the application for a config.
func newBenchmark(cfg Config) (apps.Benchmark, error) {
	switch cfg.Benchmark {
	case BenchBank:
		return bank.New(bank.Options{AccountsPerNode: cfg.ObjectsPerNode}), nil
	case BenchDHT:
		return dht.New(dht.Options{BucketsPerNode: cfg.ObjectsPerNode}), nil
	case BenchList:
		return list.New(list.Options{KeyRange: cfg.ObjectsPerNode * cfg.Nodes}), nil
	case BenchBST:
		return rbtree.NewBST(rbtree.Options{KeyRange: 2 * cfg.ObjectsPerNode * cfg.Nodes}), nil
	case BenchRBTree:
		return rbtree.New(rbtree.Options{KeyRange: 2 * cfg.ObjectsPerNode * cfg.Nodes}), nil
	case BenchVacation:
		per := cfg.ObjectsPerNode / 4
		if per < 1 {
			per = 1
		}
		return vacation.New(vacation.Options{
			ResourcesPerKindPerNode: per,
			CustomersPerNode:        per,
		}), nil
	default:
		return nil, fmt.Errorf("harness: unknown benchmark %q", cfg.Benchmark)
	}
}

// Run executes one experiment cell and returns its result.
func Run(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	bench, err := newBenchmark(cfg)
	if err != nil {
		return Result{}, err
	}
	c, err := testbed.New(cfg.Options)
	if err != nil {
		return Result{}, err
	}
	defer c.Close()
	if err := c.Setup(ctx, bench); err != nil {
		return Result{}, err
	}
	rep, err := c.Drive(ctx, bench, nil)
	if err != nil {
		return Result{}, err
	}
	res := Result{Config: cfg, Report: rep}
	return res, c.Finish(&res.Report)
}
