// Package harness runs the paper's experiments: it assembles a simulated
// cluster (nodes, latency model, scheduler), drives one of the six
// benchmarks with a configurable read ratio and per-node concurrency,
// and aggregates transaction metrics into throughput and abort-rate
// results — the raw material for Table I and Figures 4–6.
package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"dstm/internal/apps"
	"dstm/internal/apps/bank"
	"dstm/internal/apps/bst"
	"dstm/internal/apps/dht"
	"dstm/internal/apps/list"
	"dstm/internal/apps/rbtree"
	"dstm/internal/apps/vacation"
	"dstm/internal/cluster"
	"dstm/internal/core"
	"dstm/internal/sched"
	"dstm/internal/stats"
	"dstm/internal/stm"
	"dstm/internal/trace"
	"dstm/internal/trace/check"
	"dstm/internal/transport"
	"dstm/internal/vclock"
	"dstm/internal/workload"
)

// Scheduler selects the transactional scheduler under test.
type Scheduler string

// The three schedulers the paper compares.
const (
	SchedRTS     Scheduler = "RTS"
	SchedTFA     Scheduler = "TFA"
	SchedBackoff Scheduler = "TFA+Backoff"
)

// Schedulers lists them in the paper's reporting order.
var Schedulers = []Scheduler{SchedRTS, SchedTFA, SchedBackoff}

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

// Config is one experiment cell.
type Config struct {
	Nodes          int
	Scheduler      Scheduler
	Benchmark      BenchmarkKind
	ReadRatio      float64       // 0.9 = paper's low contention, 0.1 = high
	WorkersPerNode int           // concurrent transactions per node
	Duration       time.Duration // measurement window
	ObjectsPerNode int           // paper: 5–10

	// Link latency band (paper: 1–50 ms) and the scale factor applied to
	// it so sweeps run quickly on one machine.
	LatMin, LatMax time.Duration
	DelayScale     float64

	// RTS knobs.
	CLThreshold int
	AdaptiveCL  bool
	CLWindow    time.Duration

	// FlatNesting inlines inner atomic blocks into their parents (the
	// paper's flat-nesting contrast case) instead of closed nesting.
	FlatNesting bool

	// Fault injection. The rates configure a seeded transport.FaultModel
	// installed after benchmark setup (setup always runs reliably); zero
	// rates keep the lossless network the paper assumes. See DESIGN.md
	// "Fault model".
	Drop          float64
	Duplicate     float64
	Reorder       float64
	MaxExtraDelay time.Duration

	// LockLease, when positive, starts each node's lock-lease reaper so a
	// crashed or wedged committer cannot block an object forever.
	LockLease time.Duration

	// Trace enables protocol event tracing on every node (from before
	// setup, so the checker sees complete state) and replays the merged
	// log through the trace/check oracle after the run; the verdict lands
	// in Result.ProtocolErr. TraceCap sets each node's ring capacity
	// (0 = trace.DefaultCapacity); if any ring wraps, the stateful
	// invariants are skipped (see trace/check Options.Truncated).
	// TracePath, when non-empty, writes the merged trace there as JSONL.
	Trace     bool
	TraceCap  int
	TracePath string

	// CallRetry overrides the RPC retry policy on every endpoint. The zero
	// value keeps cluster.DefaultRetryPolicy. Lossy configs should shorten
	// PerTryTimeout so retransmissions track the (scaled) link delays.
	CallRetry cluster.RetryPolicy

	// KeySampler replaces the benchmark's uniform key draws (Zipfian skew,
	// hot-key storms — see internal/workload). nil keeps the benchmark's
	// default uniform distribution.
	KeySampler workload.KeySampler

	// Transport selects the message fabric: "memnet" (default, the
	// in-process latency-model network) or "tcp" (real loopback sockets).
	// Fault injection and the latency model require memnet.
	Transport string

	Seed int64
}

// faulty reports whether any fault-injection rate is set.
func (c Config) faulty() bool {
	return c.Drop > 0 || c.Duplicate > 0 || c.Reorder > 0
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
		c.ReadRatio = 0.9
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
	if c.Transport == "" {
		c.Transport = "memnet"
	}
	if c.Seed == 0 {
		c.Seed = 1
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

// Result aggregates one experiment cell.
type Result struct {
	Config   Config
	Elapsed  time.Duration
	Metrics  stm.MetricsSnapshot
	CheckErr error

	// Protocol trace verdict (Config.Trace only): ProtocolErr is the trace
	// checker's verdict over the merged event log, TraceEvents the merged
	// log's size, and TraceDropped how many events were lost to ring
	// wrap-around across all nodes (> 0 downgrades the check to the
	// truncated-trace invariants).
	ProtocolErr  error
	TraceEvents  int
	TraceDropped uint64
}

// Throughput is committed top-level transactions per second, cluster-wide.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Metrics.Commits) / r.Elapsed.Seconds()
}

// NestedAbortRate is Table I's metric.
func (r Result) NestedAbortRate() float64 { return r.Metrics.NestedAbortRate() }

// newBenchmark builds the application for a config and applies the
// configured key sampler.
func newBenchmark(cfg Config) (apps.Benchmark, error) {
	bench, err := newBenchmarkKind(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.KeySampler != nil {
		sk, ok := bench.(apps.Skewable)
		if !ok {
			return nil, fmt.Errorf("harness: benchmark %q does not support key sampling", cfg.Benchmark)
		}
		sampler := cfg.KeySampler
		sk.SetKeyPicker(func(rng *rand.Rand, n int) int { return sampler.Sample(rng, n) })
	}
	return bench, nil
}

func newBenchmarkKind(cfg Config) (apps.Benchmark, error) {
	switch cfg.Benchmark {
	case BenchBank:
		return bank.New(bank.Options{AccountsPerNode: cfg.ObjectsPerNode}), nil
	case BenchDHT:
		return dht.New(dht.Options{BucketsPerNode: cfg.ObjectsPerNode}), nil
	case BenchList:
		kr := cfg.ObjectsPerNode * cfg.Nodes
		return list.New(list.Options{KeyRange: kr, InitialSize: kr / 2}), nil
	case BenchBST:
		kr := 2 * cfg.ObjectsPerNode * cfg.Nodes
		return bst.New(bst.Options{KeyRange: kr, InitialSize: kr / 2}), nil
	case BenchRBTree:
		kr := 2 * cfg.ObjectsPerNode * cfg.Nodes
		return rbtree.New(rbtree.Options{KeyRange: kr, InitialSize: kr / 2}), nil
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

// newPolicy builds the scheduler for one node.
func newPolicy(cfg Config, st *stats.Table) (sched.Policy, error) {
	switch cfg.Scheduler {
	case SchedTFA:
		return sched.NewTFA(), nil
	case SchedBackoff:
		// The stall cap must stay proportional to the (scaled) link
		// delays: the paper's baseline backs off on the order of a few
		// transaction lifetimes, not wall-clock constants.
		return sched.NewBackoff(st, scaled(500*time.Millisecond, cfg.DelayScale)), nil
	case SchedRTS:
		return core.New(core.Options{
			CLThreshold: cfg.CLThreshold,
			Adaptive:    cfg.AdaptiveCL,
			CLWindow:    cfg.CLWindow,
		}), nil
	default:
		return nil, fmt.Errorf("harness: unknown scheduler %q", cfg.Scheduler)
	}
}

// cell is one assembled experiment cluster: the simulated network, the
// per-node runtimes and policies, and the trace/lease plumbing around
// them. Both the closed-loop driver (Run) and the open-loop stability
// driver (RunOpenLoop) build on it.
type cell struct {
	cfg         Config
	net         *transport.Network   // memnet only; nil for TCP transports
	tcps        []*transport.TCPNode // TCP transports only
	rts         []*stm.Runtime
	pols        []sched.Policy
	recorders   []*trace.Recorder
	reaperStops []func()
}

// newCell assembles the cluster for a (defaulted) config: latency-model
// network, one runtime per node with its scheduler, tracer, and lease
// reaper. Call close when done.
func newCell(cfg Config) (*cell, error) {
	c := &cell{cfg: cfg, rts: make([]*stm.Runtime, cfg.Nodes)}
	switch cfg.Transport {
	case "", "memnet":
		c.net = transport.NewNetwork(transport.MetricLatency{
			Min:   cfg.LatMin,
			Max:   cfg.LatMax,
			Scale: cfg.DelayScale,
			Seed:  uint64(cfg.Seed),
		})
	case "tcp":
		if cfg.faulty() {
			return nil, fmt.Errorf("harness: fault injection requires the memnet transport")
		}
		peers := make(map[transport.NodeID]string, cfg.Nodes)
		for i := 0; i < cfg.Nodes; i++ {
			tn, err := transport.NewTCPNode(transport.NodeID(i), "127.0.0.1:0", nil)
			if err != nil {
				c.close()
				return nil, fmt.Errorf("harness: tcp node %d: %w", i, err)
			}
			c.tcps = append(c.tcps, tn)
			peers[transport.NodeID(i)] = tn.Addr()
		}
		for _, tn := range c.tcps {
			tn.SetPeers(peers)
		}
	default:
		return nil, fmt.Errorf("harness: unknown transport %q", cfg.Transport)
	}
	for i := 0; i < cfg.Nodes; i++ {
		st := stats.NewTable(time.Millisecond)
		pol, err := newPolicy(cfg, st)
		if err != nil {
			c.close()
			return nil, err
		}
		c.pols = append(c.pols, pol)
		clk := &vclock.Clock{}
		var tr transport.Transport
		if c.net != nil {
			tr = c.net.Endpoint(transport.NodeID(i))
		} else {
			tr = c.tcps[i]
		}
		ep := cluster.NewEndpoint(tr, clk)
		if (cfg.CallRetry != cluster.RetryPolicy{}) {
			ep.SetRetryPolicy(cfg.CallRetry)
		}
		c.rts[i] = stm.NewRuntime(ep, cfg.Nodes, pol, st)
		if cfg.Trace {
			rec := trace.NewRecorder(transport.NodeID(i), cfg.TraceCap, clk.Now)
			c.rts[i].SetTracer(rec)
			c.recorders = append(c.recorders, rec)
		}
		if cfg.FlatNesting {
			c.rts[i].SetNesting(stm.FlatNesting)
		}
		if cfg.LockLease > 0 {
			c.reaperStops = append(c.reaperStops, c.rts[i].StartLeaseExpiry(cfg.LockLease))
		}
	}
	return c, nil
}

// close stops the lease reapers and shuts the network (both idempotent).
func (c *cell) close() {
	for _, stop := range c.reaperStops {
		stop()
	}
	if c.net != nil {
		c.net.Close()
	}
	for _, tn := range c.tcps {
		tn.Close()
	}
}

// healFaults removes the fault model (no-op on TCP transports, which never
// install one).
func (c *cell) healFaults() {
	if c.net != nil {
		c.net.SetFaults(nil)
	}
}

// enableFaults installs the seeded fault model when any rate is set.
func (c *cell) enableFaults() {
	if c.cfg.faulty() {
		c.net.SetFaults(transport.NewFaultModel(transport.FaultConfig{
			Seed:          uint64(c.cfg.Seed),
			Drop:          c.cfg.Drop,
			Duplicate:     c.cfg.Duplicate,
			Reorder:       c.cfg.Reorder,
			MaxExtraDelay: c.cfg.MaxExtraDelay,
		}))
	}
}

// schedQueueDepth sums the parked requesters across every node's policy.
func (c *cell) schedQueueDepth() int {
	total := 0
	for _, pol := range c.pols {
		if qd, ok := pol.(sched.QueueDepther); ok {
			total += qd.QueueDepth()
		}
	}
	return total
}

// finishTrace quiesces the cluster, merges the per-node event logs, runs
// the protocol oracle, and (optionally) writes the JSONL export. It
// populates the trace fields shared by Result and OpenLoopResult.
func (c *cell) finishTrace(events *int, dropped *uint64, protocolErr *error) error {
	// Quiesce before collecting so no goroutine is mid-way through
	// emitting a hand-off group: stop the lease reapers, shut the
	// network (idempotent; drains the per-link delivery goroutines),
	// and give spawned handler goroutines a beat to finish.
	c.close()
	time.Sleep(25 * time.Millisecond)

	logs := make([][]trace.Event, len(c.recorders))
	for i, rec := range c.recorders {
		logs[i] = rec.Events()
		*dropped += rec.Dropped()
	}
	merged := trace.Merge(logs...)
	*events = len(merged)
	rep := check.Run(merged, check.Options{Truncated: *dropped > 0})
	*protocolErr = rep.Err()
	if c.cfg.TracePath != "" {
		f, err := os.Create(c.cfg.TracePath)
		if err != nil {
			return fmt.Errorf("harness: trace file: %w", err)
		}
		werr := trace.WriteJSONL(f, merged)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("harness: trace write: %w", werr)
		}
	}
	return nil
}

// Run executes one experiment cell and returns its aggregated result.
func Run(ctx context.Context, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()

	c, err := newCell(cfg)
	if err != nil {
		return Result{}, err
	}
	defer c.close()
	rts := c.rts

	bench, err := newBenchmark(cfg)
	if err != nil {
		return Result{}, err
	}
	if err := bench.Setup(ctx, rts); err != nil {
		return Result{}, fmt.Errorf("harness: setup: %w", err)
	}

	// Drop setup noise from the counters by sampling a baseline after
	// setup and subtracting later — setup runs transactions too.
	baseline := aggregate(rts)

	// Faults go live only after setup so the seeded state is complete.
	c.enableFaults()

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	start := time.Now()
	for n := 0; n < cfg.Nodes; n++ {
		for w := 0; w < cfg.WorkersPerNode; w++ {
			wg.Add(1)
			go func(rt *stm.Runtime, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for runCtx.Err() == nil {
					read := rng.Float64() < cfg.ReadRatio
					if err := bench.Op(runCtx, rt, rng, read); err != nil {
						if isShutdownErr(err) {
							return
						}
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
				}
			}(rts[n], cfg.Seed+int64(n*1000+w))
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return Result{}, fmt.Errorf("harness: worker failed: %w", firstErr)
	}

	// Heal before checking invariants: the check verifies what committed,
	// not whether the check's own RPCs survive the lossy network.
	c.healFaults()

	m := aggregate(rts)
	m.Sub(baseline)

	res := Result{Config: cfg, Elapsed: elapsed, Metrics: m}
	// Bound the invariant check so a broken cluster state reports an error
	// instead of retrying forever.
	checkCtx, checkCancel := context.WithTimeout(ctx, 30*time.Second)
	defer checkCancel()
	res.CheckErr = bench.Check(checkCtx, rts[0])

	if cfg.Trace {
		if err := c.finishTrace(&res.TraceEvents, &res.TraceDropped, &res.ProtocolErr); err != nil {
			return res, err
		}
	}
	return res, nil
}

func isShutdownErr(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, cluster.ErrEndpointClosed) ||
		errors.Is(err, transport.ErrClosed)
}

func aggregate(rts []*stm.Runtime) stm.MetricsSnapshot {
	var total stm.MetricsSnapshot
	for _, rt := range rts {
		s := rt.Metrics().Snapshot()
		total.Merge(s)
	}
	return total
}
