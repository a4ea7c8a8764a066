package testbed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dstm/internal/apps"
	"dstm/internal/cc"
	"dstm/internal/cluster"
	"dstm/internal/object"
	"dstm/internal/stm"
	"dstm/internal/trace"
	"dstm/internal/trace/check"
	"dstm/internal/transport"
	"dstm/internal/workload"
)

// Samples are exact per-operation latencies, sorted ascending.
type Samples []time.Duration

// Quantile returns the nearest-rank q-quantile (0 for no samples).
func (s Samples) Quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// Report is what one Drive produced, completed by Run and Finish.
type Report struct {
	Elapsed time.Duration // the window as it ran: faults on → last worker out

	// Operation accounting. Offered = Shed + Completed + Failed + Left:
	// every operation offered was shed at a full admission queue, returned
	// nil, returned an error, or was still queued or in service when the
	// window closed. In the closed loop nothing queues, so nothing is shed
	// and Left counts the operations the deadline cut short.
	Offered, Shed, Completed, Failed, Left uint64

	// Sojourn has one sample per completed operation: arrival (the start
	// of the operation in the closed loop) to return, queueing included.
	Sojourn Samples

	Metrics stm.MetricsSnapshot  // the window's transaction counters, Setup's excluded
	Faults  transport.FaultStats // messages the fault model dropped, duplicated, reordered
	Crashes int                  // crash/restart cycles the crash schedule ran

	// CheckErr is the application's invariant check on the healed cluster.
	CheckErr error

	// Set by Run from one walk of the healed cluster's stores: LeftLocks
	// counts the objects still commit-locked once Drive returned, leftLock
	// describing the first; StaleEntries counts the objects whose home does
	// not name the store holding them, or names a node of this process that
	// holds none, stale describing one.
	LeftLocks, StaleEntries int
	leftLock, stale         error

	// Set by Finish when Options.Trace is on: the oracle's verdict over
	// the merged event log, the log's size, and how many events the rings
	// lost to wrap-around (> 0 downgrades the check to the truncated-trace
	// invariants).
	ProtocolErr  error
	TraceEvents  int
	TraceDropped uint64
}

// Throughput is committed top-level transactions per second, cluster-wide.
func (r Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Metrics.Commits) / r.Elapsed.Seconds()
}

// NestedAbortRate is Table I's metric.
func (r Report) NestedAbortRate() float64 { return r.Metrics.NestedAbortRate() }

// Err is the run's verdict, checked in order: the commit locks, since
// only a lock's holder frees it and every holder has ended by then (a lock
// left behind also wedges the invariant check); the application's
// invariant; the directory; the protocol oracle, when tracing. A crash is
// no excuse: a crashed node keeps its state, and every lock reply and
// homes message outlasts its crash window.
func (r Report) Err() error {
	if r.LeftLocks > 0 {
		return fmt.Errorf("testbed: %d commit locks left: %w", r.LeftLocks, r.leftLock)
	}
	if r.CheckErr != nil {
		return fmt.Errorf("testbed: invariant: %w", r.CheckErr)
	}
	if r.StaleEntries > 0 {
		return fmt.Errorf("testbed: %d stale directory entries: %w", r.StaleEntries, r.stale)
	}
	if r.ProtocolErr != nil {
		return fmt.Errorf("testbed: protocol trace: %w", r.ProtocolErr)
	}
	return nil
}

// Run runs one cell in process: New, Setup, Drive, the directory check and
// Finish. Its error is the first step that failed or, once all ran, the
// verdict Err; the report is complete whenever Drive finished.
func Run(ctx context.Context, o Options, bench apps.Benchmark) (Report, error) {
	c, err := New(o)
	if err != nil {
		return Report{}, err
	}
	defer c.Close()
	if err := c.Setup(ctx, bench); err != nil {
		return Report{}, err
	}
	rep, err := c.Drive(ctx, bench)
	if err != nil {
		return rep, err
	}
	checkCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	lookupErr := c.checkStores(checkCtx, &rep)
	if err := c.Finish(&rep); err != nil {
		return rep, err
	}
	if lookupErr != nil {
		return rep, fmt.Errorf("testbed: directory check: %w", lookupErr)
	}
	return rep, rep.Err()
}

// Setup applies the configured key picker to bench and seeds its shared
// objects over the still reliable network, once: one node of a
// multi-process cluster (Options.Peers) first waits for its peers to listen.
func (c *Cluster) Setup(ctx context.Context, bench apps.Benchmark) error {
	if pick := c.opts.KeyPicker; pick != nil {
		bench.SetKeyPicker(pick)
	}
	if err := c.awaitPeers(ctx); err != nil {
		return fmt.Errorf("testbed: setup: %w", err)
	}
	if err := bench.Setup(ctx, c.Rts); err != nil {
		return fmt.Errorf("testbed: setup: %w", err)
	}
	return nil
}

// job is one arrival admitted to the open loop's queue.
type job struct {
	arrived time.Time
	seed    int64
}

// Drive is the one op loop. It arms the configured faults and crash
// schedule, has WorkersPerNode workers per runtime serve bench's operations
// for Duration — closed loop, or open loop when Options.Arrival is set —
// then heals the network, gathers the window's counters and runs
// bench.Check on the healed cluster. The error is the first operation that
// failed for a reason other than the window closing; Check is skipped then.
func (c *Cluster) Drive(ctx context.Context, bench apps.Benchmark) (Report, error) {
	o := c.opts
	if o.Duration <= 0 || o.WorkersPerNode <= 0 {
		return Report{}, fmt.Errorf("testbed: drive needs a Duration and WorkersPerNode, got %v and %d", o.Duration, o.WorkersPerNode)
	}
	before := c.metrics()
	if o.faulty() {
		c.net.SetFaults(c.faults)
	}
	runCtx, cancel := context.WithTimeout(ctx, o.Duration)
	defer cancel()

	var (
		offered, shed, failed, cut atomic.Uint64
		crashes                    int
		errOnce                    sync.Once
		firstErr                   error
		wg                         sync.WaitGroup
		jobs                       chan job
		sojourns                   = make([][]time.Duration, len(c.Rts)*o.WorkersPerNode)
	)
	if o.Arrival != nil {
		// Sized to the admission bound: a full buffer is what sheds.
		jobs = make(chan job, o.MaxPending)
	}
	start := time.Now()
	for n, rt := range c.Rts {
		for w := 0; w < o.WorkersPerNode; w++ {
			wg.Add(1)
			go func(rt *stm.Runtime, seed int64, done *[]time.Duration) {
				defer wg.Done()
				// Closed loop: one stream per worker. Open loop: each
				// admitted arrival reseeds, so the schedule, not the worker
				// that happens to serve it, determines the operation.
				rng := rand.New(rand.NewSource(seed))
				for runCtx.Err() == nil {
					arrived := time.Now()
					if jobs == nil {
						offered.Add(1)
					} else {
						select {
						case <-runCtx.Done():
							return
						case j := <-jobs:
							arrived, rng = j.arrived, rand.New(rand.NewSource(j.seed))
						}
					}
					err := bench.Op(runCtx, rt, rng, rng.Float64() < o.ReadRatio)
					switch {
					case err == nil:
						*done = append(*done, time.Since(arrived))
					case isShutdownErr(err):
						cut.Add(1)
						return
					default:
						failed.Add(1)
						errOnce.Do(func() { firstErr = err })
					}
				}
			}(rt, o.Seed+int64(n*1000+w), &sojourns[n*o.WorkersPerNode+w])
		}
	}
	if o.CrashEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			crashes = c.crashLoop(runCtx)
		}()
	}
	if jobs != nil {
		// The arrival clock: offer on schedule until the window closes,
		// shedding — never blocking — when the queue is full.
		rng := rand.New(rand.NewSource(o.Seed ^ 0x0a221ca1))
		workload.Drive(runCtx, o.Arrival, rng, 0, func(i int) bool {
			offered.Add(1)
			select {
			case jobs <- job{arrived: time.Now(), seed: o.Seed + int64(i)*7919 + 1}:
			default:
				shed.Add(1)
			}
			return true
		})
	}
	<-runCtx.Done()
	wg.Wait()

	rep := Report{
		Elapsed: time.Since(start),
		Offered: offered.Load(),
		Shed:    shed.Load(),
		Failed:  failed.Load(),
		Left:    cut.Load() + uint64(len(jobs)),
		Crashes: crashes,
	}
	for _, s := range sojourns {
		rep.Sojourn = append(rep.Sojourn, s...)
	}
	slices.Sort(rep.Sojourn)
	rep.Completed = uint64(len(rep.Sojourn))

	// Heal before checking invariants: the check verifies what committed,
	// not whether its own RPCs survive a lossy network.
	if o.faulty() {
		for i := 0; i < o.Nodes; i++ {
			c.faults.Restart(transport.NodeID(i))
		}
		c.net.SetFaults(nil)
		rep.Faults = c.faults.Stats()
	}
	rep.Metrics = c.metrics()
	rep.Metrics.Sub(before)
	if firstErr != nil {
		return rep, fmt.Errorf("testbed: operation failed: %w", firstErr)
	}
	if o.faulty() {
		// Let straggling retransmissions and queue hand-offs converge on
		// the healed network.
		time.Sleep(100 * time.Millisecond)
	}
	// Bounded, so a broken cluster reports an error instead of retrying
	// forever.
	checkCtx, checkCancel := context.WithTimeout(ctx, 30*time.Second)
	defer checkCancel()
	rep.CheckErr = bench.Check(checkCtx, c.Rts[0])
	return rep, nil
}

// Finish closes the cluster and, when tracing, merges the per-node event
// logs, replays them through the protocol oracle into rep and writes
// Options.TracePath.
func (c *Cluster) Finish(rep *Report) error {
	// Quiesce before collecting so no goroutine is mid-way through emitting
	// a hand-off group: Close waits out the delivery goroutines, on which
	// every handler runs.
	c.Close()
	if !c.opts.Trace {
		return nil
	}

	logs := make([][]trace.Event, len(c.recorders))
	for i, rec := range c.recorders {
		logs[i] = rec.Events()
		rep.TraceDropped += rec.Dropped()
	}
	merged := trace.Merge(logs...)
	rep.TraceEvents = len(merged)
	rep.ProtocolErr = check.Run(merged, check.Options{Truncated: rep.TraceDropped > 0}).Err()
	if c.opts.TracePath == "" {
		return nil
	}
	f, err := os.Create(c.opts.TracePath)
	if err != nil {
		return fmt.Errorf("testbed: trace file: %w", err)
	}
	werr := trace.WriteJSONL(f, merged)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("testbed: trace write: %w", werr)
	}
	return nil
}

// crashLoop is the crash schedule: until ctx ends, every CrashEvery it takes
// a random node off the network for half of CrashEvery, then brings it
// back. The victim's in-memory state survives (fail-stop with stable
// store); only its connectivity flaps. It returns the number of crashes.
func (c *Cluster) crashLoop(ctx context.Context) (crashes int) {
	rng := rand.New(rand.NewSource(c.opts.Seed ^ 0x5ca1ab1e))
	tick := time.NewTicker(c.opts.CrashEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return crashes
		case <-tick.C:
		}
		victim := transport.NodeID(rng.Intn(c.opts.Nodes))
		c.faults.Crash(victim)
		crashes++
		select {
		case <-ctx.Done():
		case <-time.After(c.opts.CrashEvery / 2):
		}
		c.faults.Restart(victim)
	}
}

// checkStores checks the stores of a quiet cluster into rep: the commit
// locks left (leftLock) and the directory. Node 0 asks the homes of every
// stored object and of every entry in a shard of this process's nodes
// (cc.Service.AskHomes, which never answers from a hint), one lookup per
// home and all at once, so the check costs one round trip whatever the
// object count. It counts the objects whose home names another node or has
// no entry, and those no store holds whose home names a node of this
// process: an object a lock reply lost for good took off its owner. err is a
// lookup that failed: the check was not made and rep is unchanged.
func (c *Cluster) checkStores(ctx context.Context, rep *Report) error {
	var ids []object.ID
	nodes := make(map[transport.NodeID]*stm.Runtime, len(c.Rts))
	for _, rt := range c.Rts {
		nodes[rt.Self()] = rt
		ids = append(ids, rt.Store().IDs()...)
		ids = append(ids, rt.Locator().Homed()...)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	// An unknown object is an answer, not a failed lookup: the home has no
	// entry for it, and AskHomes reports it only if every call went through.
	homeSays, _, err := c.Rts[0].Locator().AskHomes(ctx, ids)
	if err != nil && !errors.Is(err, cc.ErrUnknownObject) {
		return err
	}
	held := make(map[object.ID]bool, len(ids))
	for _, rt := range c.Rts {
		for _, id := range rt.Store().IDs() {
			held[id] = true
			if err := leftLock(rt, id); err != nil {
				rep.LeftLocks++
				if rep.leftLock == nil {
					rep.leftLock = err
				}
			}
			switch got, ok := homeSays[id]; {
			case !ok:
				rep.StaleEntries++
				rep.stale = fmt.Errorf("%s is in node %d's store, its home has no entry for it", id, rt.Self())
			case got != rt.Self():
				rep.StaleEntries++
				rep.stale = fmt.Errorf("%s is in node %d's store, its home says node %d", id, rt.Self(), got)
			}
		}
	}
	for _, id := range ids {
		if owner, ok := homeSays[id]; ok && !held[id] && nodes[owner] != nil {
			rep.StaleEntries++
			rep.stale = fmt.Errorf("%s is in no store, its home says node %d", id, owner)
		}
	}
	return nil
}

// leftLock describes the commit lock rt's store holds on id, or is nil.
// Once every transaction has ended none may be held: only a lock's holder
// frees it.
func leftLock(rt *stm.Runtime, id object.ID) error {
	if tx := rt.Store().State(id).LockedBy; tx != 0 {
		return fmt.Errorf("%s is commit-locked by tx %x at node %d", id, tx, rt.Self())
	}
	return nil
}

// metrics sums the transaction counters of this process's runtimes.
func (c *Cluster) metrics() stm.MetricsSnapshot {
	var total stm.MetricsSnapshot
	for _, rt := range c.Rts {
		total.Merge(rt.Metrics().Snapshot())
	}
	return total
}

// isShutdownErr reports whether err is an expected consequence of the
// window closing or the cluster shutting down rather than a failure.
func isShutdownErr(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, cluster.ErrEndpointClosed) ||
		errors.Is(err, transport.ErrClosed)
}
