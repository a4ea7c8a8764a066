package testutil

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dstm/internal/apps"
	"dstm/internal/cluster"
	"dstm/internal/testbed"
	"dstm/internal/transport"
)

// ChaosOptions configures a fault-injected cluster run: testbed's options
// (fault rates, retry policy, lease, trace, load) plus a crash schedule.
// The zero value is not useful; fill at least the fault rates.
type ChaosOptions struct {
	testbed.Options

	// Crash schedule: every CrashEvery a random node, node 0 included,
	// crashes (drops off the network) for CrashDown, then restarts.
	// CrashEvery 0 disables crashes; CrashDown 0 means half of CrashEvery.
	CrashEvery time.Duration
	CrashDown  time.Duration
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Scheduler == "" {
		o.Scheduler = testbed.TFA
	}
	if (o.CallRetry == cluster.RetryPolicy{}) {
		o.CallRetry = testbed.LossyRetry
	}
	if o.LockLease <= 0 {
		// Comfortably longer than any healthy commit in these tests, so
		// the crashed-committer backstop only fires when a holder is
		// truly gone.
		o.LockLease = 5 * time.Second
	}
	if o.WorkersPerNode <= 0 {
		o.WorkersPerNode = 4
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
	return o
}

// ChaosCluster is a testbed cluster wired for fault injection — retrying RPC
// endpoints, lock-lease reapers on every node, a seeded fault model dormant
// until Run — to which Run adds the crash controller and the
// directory-convergence check.
type ChaosCluster struct {
	*testbed.Cluster
	opts ChaosOptions
}

// NewChaosCluster builds the cluster; t.Cleanup closes it.
func NewChaosCluster(t testing.TB, opts ChaosOptions) *ChaosCluster {
	t.Helper()
	opts = opts.withDefaults()
	c, err := testbed.New(opts.Options)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return &ChaosCluster{Cluster: c, opts: opts}
}

// ChaosReport summarises one chaos run.
type ChaosReport struct {
	testbed.Report
	Crashes int // crash/restart cycles executed

	// StaleEntries counts the objects whose home, on the healed cluster, does
	// not name the store holding them; Run fails on any unless nodes crashed.
	StaleEntries int
}

// Run drives bench on the faulty cluster: Setup over a clean network, then
// testbed's op loop under injected faults and the configured crash schedule
// for Duration, then heal, bench.Check, the directory check and — with
// Trace — the protocol oracle, whose verdict lands in ProtocolErr. The
// returned error is the first operation or invariant failure; a healthy run
// returns a report and nil. The cluster is closed afterwards.
func (c *ChaosCluster) Run(ctx context.Context, bench apps.Benchmark) (ChaosReport, error) {
	var rep ChaosReport
	if err := c.Setup(ctx, bench); err != nil {
		return rep, fmt.Errorf("chaos: %w", err)
	}
	var crash func(context.Context)
	if c.opts.CrashEvery > 0 && c.opts.Nodes > 1 {
		crash = func(ctx context.Context) { rep.Crashes = c.crashLoop(ctx) }
	}
	var err error
	if rep.Report, err = c.Drive(ctx, bench, crash); err != nil {
		return rep, fmt.Errorf("chaos: %w", err)
	}
	if rep.CheckErr != nil {
		return rep, fmt.Errorf("chaos: invariant check: %w", rep.CheckErr)
	}
	checkCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var stale error
	if rep.StaleEntries, stale = c.staleEntries(checkCtx); stale != nil && c.opts.CrashEvery == 0 {
		return rep, stale
	}
	return rep, c.Finish(&rep.Report)
}

// crashLoop is the crash controller: until ctx ends it periodically takes a
// random node off the network for CrashDown, then brings it back. The
// victim's in-memory state survives (fail-stop with stable store); only its
// connectivity flaps. It returns the number of crashes.
func (c *ChaosCluster) crashLoop(ctx context.Context) (crashes int) {
	// A crash-only configuration has no rate that makes Drive arm the model.
	c.Net.SetFaults(c.Faults)
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
		c.Faults.Crash(victim)
		crashes++
		select {
		case <-ctx.Done():
		case <-time.After(c.opts.CrashDown):
		}
		c.Faults.Restart(victim)
	}
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
