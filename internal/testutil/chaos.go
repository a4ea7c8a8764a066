package testutil

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dstm/internal/apps"
	"dstm/internal/cluster"
	"dstm/internal/sched"
	"dstm/internal/stm"
	"dstm/internal/trace"
	"dstm/internal/trace/check"
	"dstm/internal/transport"
	"dstm/internal/vclock"
	"dstm/internal/workload"
)

// ChaosOptions configures a fault-injected cluster run. The zero value is
// not useful; fill at least Nodes and the fault rates.
type ChaosOptions struct {
	Nodes int
	Seed  int64

	// Fault rates, applied to every inter-node message once faults are
	// enabled (see transport.FaultConfig).
	Drop          float64
	Duplicate     float64
	Reorder       float64
	MaxExtraDelay time.Duration

	// Latency is the base link latency model; nil means zero latency.
	Latency transport.LatencyModel

	// Retry is the per-endpoint RPC retry policy. The zero value selects an
	// aggressive policy suited to in-memory networks (short per-try timeout,
	// small backoff) so lost messages are retransmitted quickly.
	Retry cluster.RetryPolicy

	// LockLease bounds how long a commit lock may be held before the owner
	// force-releases it (the crashed-committer backstop). 0 means 5s —
	// comfortably longer than any healthy commit in these tests, so it only
	// fires when a holder is truly gone.
	LockLease time.Duration

	// MkPolicy builds each node's scheduler; nil means plain TFA.
	MkPolicy func() sched.Policy

	// Trace enables protocol event tracing on every node; after the run the
	// merged log is replayed through the trace/check oracle and the verdict
	// lands in ChaosReport.ProtocolErr. TraceCap sets each node's ring
	// capacity (0 = trace.DefaultCapacity); a wrapped ring downgrades the
	// check to the truncated-trace invariants.
	Trace    bool
	TraceCap int

	// Workload shape.
	Workers   int           // concurrent workers per node; 0 means 4
	Duration  time.Duration // fault window; 0 means 2s
	ReadRatio float64       // fraction of read ops; 0 means 0.5

	// KeySampler skews the benchmark's key choices (nil = the benchmark's
	// uniform default). Applied via apps.Skewable before Setup; ignored
	// for benchmarks that do not support it.
	KeySampler workload.KeySampler

	// Arrival switches Run to an open-loop driver: ops are admitted on
	// this arrival schedule (regardless of completions) into a bounded
	// queue consumed by Workers×Nodes workers, instead of the default
	// closed loop where each worker issues ops back-to-back. Overflow
	// beyond MaxPending is shed and counted, never blocks the clock.
	Arrival    workload.Arrival
	MaxPending int // admission-queue bound for open-loop runs; 0 means 4096

	// Crash schedule: every CrashEvery a random non-zero node crashes
	// (drops off the network) for CrashDown, then restarts. CrashEvery 0
	// disables crashes.
	CrashEvery time.Duration
	CrashDown  time.Duration
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if (o.Retry == cluster.RetryPolicy{}) {
		o.Retry = cluster.RetryPolicy{
			PerTryTimeout: 30 * time.Millisecond,
			BaseBackoff:   2 * time.Millisecond,
			MaxBackoff:    20 * time.Millisecond,
		}
	}
	if o.LockLease <= 0 {
		o.LockLease = 5 * time.Second
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.ReadRatio <= 0 {
		o.ReadRatio = 0.5
	}
	if o.CrashEvery > 0 && o.CrashDown <= 0 {
		o.CrashDown = o.CrashEvery / 2
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 4096
	}
	return o
}

// ChaosCluster is a D-STM cluster wired for fault injection: retrying RPC
// endpoints, lock-lease reapers on every node, and a seeded fault model
// that stays dormant until EnableFaults.
type ChaosCluster struct {
	Net    *transport.Network
	Faults *transport.FaultModel
	Rts    []*stm.Runtime

	opts        ChaosOptions
	recorders   []*trace.Recorder
	reaperStops []func()
}

// NewChaosCluster builds the cluster. Faults are created but not installed,
// so benchmark Setup runs over a reliable network; call EnableFaults (or
// Run, which does it for you) to start injecting.
func NewChaosCluster(t testing.TB, opts ChaosOptions) *ChaosCluster {
	t.Helper()
	opts = opts.withDefaults()
	mkPolicy := opts.MkPolicy
	if mkPolicy == nil {
		mkPolicy = func() sched.Policy { return sched.NewTFA() }
	}
	net := transport.NewNetwork(opts.Latency)
	t.Cleanup(func() { net.Close() })

	cc := &ChaosCluster{
		Net:  net,
		opts: opts,
		Faults: transport.NewFaultModel(transport.FaultConfig{
			Seed:          uint64(opts.Seed),
			Drop:          opts.Drop,
			Duplicate:     opts.Duplicate,
			Reorder:       opts.Reorder,
			MaxExtraDelay: opts.MaxExtraDelay,
		}),
	}
	for i := 0; i < opts.Nodes; i++ {
		clk := &vclock.Clock{}
		ep := cluster.NewEndpoint(net.Endpoint(transport.NodeID(i)), clk)
		ep.SetRetryPolicy(opts.Retry)
		rt := stm.NewRuntime(ep, opts.Nodes, mkPolicy(), nil)
		if opts.Trace {
			rec := trace.NewRecorder(transport.NodeID(i), opts.TraceCap, clk.Now)
			rt.SetTracer(rec)
			cc.recorders = append(cc.recorders, rec)
		}
		stop := rt.StartLeaseExpiry(opts.LockLease)
		t.Cleanup(stop)
		cc.reaperStops = append(cc.reaperStops, stop)
		cc.Rts = append(cc.Rts, rt)
	}
	return cc
}

// EnableFaults starts injecting faults into every subsequent send.
func (c *ChaosCluster) EnableFaults() { c.Net.SetFaults(c.Faults) }

// DisableFaults heals the network: any crashed nodes are restarted,
// partitions healed, and the fault model uninstalled, so in-flight
// retransmissions converge.
func (c *ChaosCluster) DisableFaults() {
	for i := 0; i < c.opts.Nodes; i++ {
		c.Faults.Restart(transport.NodeID(i))
	}
	c.Net.SetFaults(nil)
}

// ChaosReport summarises one chaos run.
type ChaosReport struct {
	Metrics stm.MetricsSnapshot  // cluster-wide transaction counters
	Faults  transport.FaultStats // messages dropped/duplicated/reordered
	Crashes int                  // crash/restart cycles executed

	// StaleEntries counts the objects whose home, on the healed cluster, does
	// not name the store holding them; Run fails on any unless nodes crashed.
	StaleEntries int

	// Open-loop accounting (ChaosOptions.Arrival only; zero otherwise).
	Offered   uint64 // arrivals generated by the arrival process
	Shed      uint64 // arrivals dropped at the MaxPending bound
	Completed uint64 // admitted ops that finished successfully

	// Protocol trace verdict (ChaosOptions.Trace only). ProtocolErr is the
	// trace checker's verdict over the merged event log; TraceDropped > 0
	// means some ring wrapped and the check ran truncated.
	ProtocolErr  error
	TraceEvents  int
	TraceDropped uint64
}

// Run drives bench on the faulty cluster: Setup over a clean network,
// then Workers×Nodes op loops under injected faults (plus the configured
// crash schedule) for Duration, then heal and verify bench.Check. The
// returned error is the first worker failure or the invariant-check
// failure; a healthy run returns a report and nil.
func (c *ChaosCluster) Run(ctx context.Context, bench apps.Benchmark) (ChaosReport, error) {
	var rep ChaosReport
	if c.opts.KeySampler != nil {
		if sk, ok := bench.(apps.Skewable); ok {
			sampler := c.opts.KeySampler
			sk.SetKeyPicker(func(rng *rand.Rand, n int) int { return sampler.Sample(rng, n) })
		}
	}
	if err := bench.Setup(ctx, c.Rts); err != nil {
		return rep, fmt.Errorf("chaos: setup: %w", err)
	}

	c.EnableFaults()
	runCtx, cancel := context.WithTimeout(ctx, c.opts.Duration)
	defer cancel()

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	var completed atomic.Uint64
	var jobs chan int64 // open-loop admission queue (Arrival mode only)
	if c.opts.Arrival != nil {
		jobs = make(chan int64, c.opts.MaxPending)
	}
	for n := 0; n < c.opts.Nodes; n++ {
		for w := 0; w < c.opts.Workers; w++ {
			wg.Add(1)
			go func(rt *stm.Runtime, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for runCtx.Err() == nil {
					if jobs != nil {
						// Open loop: wait for an admitted arrival; its seed
						// reseeds the op so the schedule, not the worker,
						// determines the op stream.
						select {
						case <-runCtx.Done():
							return
						case opSeed, ok := <-jobs:
							if !ok {
								return
							}
							rng = rand.New(rand.NewSource(opSeed))
						}
					}
					read := rng.Float64() < c.opts.ReadRatio
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
					completed.Add(1)
				}
			}(c.Rts[n], c.opts.Seed+int64(n*1000+w))
		}
	}

	// Crash controller: periodically take a random node off the network for
	// CrashDown, then bring it back. The victim's in-memory state survives
	// (fail-stop with stable store); only its connectivity flaps.
	if c.opts.CrashEvery > 0 && c.opts.Nodes > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(c.opts.Seed ^ 0x5ca1ab1e))
			tick := time.NewTicker(c.opts.CrashEvery)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tick.C:
				}
				victim := transport.NodeID(rng.Intn(c.opts.Nodes))
				c.Faults.Crash(victim)
				rep.Crashes++
				select {
				case <-runCtx.Done():
					c.Faults.Restart(victim)
					return
				case <-time.After(c.opts.CrashDown):
				}
				c.Faults.Restart(victim)
			}
		}()
	}

	if c.opts.Arrival != nil {
		// The arrival clock: offer ops on schedule until the fault window
		// closes, shedding (never blocking) when the queue is full.
		rng := rand.New(rand.NewSource(c.opts.Seed ^ 0x0a221ca1))
		workload.Drive(runCtx, c.opts.Arrival, rng, 0, func(i int) bool {
			rep.Offered++
			select {
			case jobs <- c.opts.Seed + int64(i)*7919 + 1:
			default:
				rep.Shed++
			}
			return true
		})
		close(jobs)
	}

	wg.Wait()
	if c.opts.Arrival != nil {
		rep.Completed = completed.Load()
	}
	c.DisableFaults()
	rep.Faults = c.Faults.Stats()
	for _, rt := range c.Rts {
		rep.Metrics.Merge(rt.Metrics().Snapshot())
	}
	if firstErr != nil {
		return rep, fmt.Errorf("chaos: worker failed: %w", firstErr)
	}

	// Let straggling retransmissions and queue hand-offs converge on the
	// healed network before checking invariants.
	time.Sleep(100 * time.Millisecond)
	checkCtx, checkCancel := context.WithTimeout(ctx, 30*time.Second)
	defer checkCancel()
	if err := bench.Check(checkCtx, c.Rts[0]); err != nil {
		return rep, fmt.Errorf("chaos: invariant check: %w", err)
	}
	var stale error
	if rep.StaleEntries, stale = c.staleEntries(checkCtx); stale != nil && c.opts.CrashEvery == 0 {
		return rep, stale
	}

	if c.opts.Trace {
		// Quiesce before collecting so no goroutine is mid-way through
		// emitting a hand-off group: stop the lease reapers, shut the
		// network (drains per-link delivery goroutines), and give spawned
		// handler goroutines a beat to finish. The cluster is terminal
		// after this — Run with Trace is a run-once affair.
		for _, stop := range c.reaperStops {
			stop()
		}
		c.Net.Close()
		time.Sleep(25 * time.Millisecond)

		logs := make([][]trace.Event, len(c.recorders))
		for i, rec := range c.recorders {
			logs[i] = rec.Events()
			rep.TraceDropped += rec.Dropped()
		}
		merged := trace.Merge(logs...)
		rep.TraceEvents = len(merged)
		rep.ProtocolErr = check.Run(merged, check.Options{Truncated: rep.TraceDropped > 0}).Err()
	}
	return rep, nil
}

// staleEntries has a fresh home lookup made for every object in every store
// and counts those not naming the holder; the error describes one of them.
func (c *ChaosCluster) staleEntries(ctx context.Context) (n int, err error) {
	for i, rt := range c.Rts {
		for _, id := range rt.Store().IDs() {
			got, lerr := c.Rts[(i+1)%len(c.Rts)].Locator().Relocate(ctx, id)
			if lerr != nil || got != rt.Self() {
				n++
				err = fmt.Errorf("chaos: stale directory: %s is in node %d's store, its home says node %d (err %v)", id, rt.Self(), got, lerr)
			}
		}
	}
	return n, err
}

// isShutdownErr reports whether err is an expected consequence of the run
// window closing rather than a correctness failure.
func isShutdownErr(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, cluster.ErrEndpointClosed) ||
		errors.Is(err, transport.ErrClosed)
}
