package testutil

import (
	"context"
	"testing"
	"time"

	"dstm/internal/apps/bank"
	"dstm/internal/apps/dht"
	"dstm/internal/apps/list"
	"dstm/internal/testbed"
	"dstm/internal/transport"
	"dstm/internal/workload"
)

// chaosOpts is the shared base configuration: TFA on 3 nodes, 15% drop,
// some duplication and reordering, and a crash/restart every 300ms. All
// streams derive from the fixed seed, so failures reproduce.
func chaosOpts() testbed.Options {
	return testbed.Options{
		Nodes:          3,
		Seed:           7,
		Scheduler:      testbed.TFA,
		Drop:           0.15,
		Duplicate:      0.05,
		Reorder:        0.10,
		MaxExtraDelay:  time.Millisecond,
		CrashEvery:     300 * time.Millisecond,
		WorkersPerNode: 3,
		Duration:       1500 * time.Millisecond,
		ReadRatio:      0.5,
	}
}

// requireChaosHappened fails unless the run actually exercised the fault
// paths it claims to: messages dropped and at least one crash cycle.
func requireChaosHappened(t *testing.T, rep testbed.Report) {
	t.Helper()
	if rep.Faults.Dropped == 0 {
		t.Fatal("no messages dropped; fault injection was not active")
	}
	if rep.Crashes == 0 {
		t.Fatal("no crash/restart cycles executed")
	}
	if rep.Metrics.Commits == 0 {
		t.Fatal("no transactions committed under faults; cluster made no progress")
	}
	t.Logf("commits=%d aborts=%d dropped=%d duplicated=%d reordered=%d crashes=%d stale-entries=%d",
		rep.Metrics.Commits, rep.Metrics.TotalAborts(), rep.Faults.Dropped,
		rep.Faults.Duplicated, rep.Faults.Reordered, rep.Crashes, rep.StaleEntries)
}

// TestChaosBankConservation checks the headline invariant: across 15%
// message loss, duplication, reordering, and repeated node crashes, every
// committed transfer is atomic, so the total balance is conserved.
func TestChaosBankConservation(t *testing.T) {
	rep, err := testbed.Run(context.Background(), chaosOpts(), bank.New(bank.Options{AccountsPerNode: 4}))
	if err != nil {
		t.Fatal(err)
	}
	requireChaosHappened(t, rep)
}

// TestChaosDirectoryConverges runs the bank under loss, duplication and
// reordering but no crashes, where every committer finishes its homes wave:
// migrations chase one another across the lossy links, and once the cluster
// is quiet every home entry must name the store holding the object (Run
// fails otherwise).
func TestChaosDirectoryConverges(t *testing.T) {
	opts := chaosOpts()
	opts.CrashEvery = 0
	opts.ReadRatio = 0.2
	opts.Scheduler, opts.CLThreshold = testbed.RTS, 3
	rep, err := testbed.Run(context.Background(), opts, bank.New(bank.Options{AccountsPerNode: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults.Dropped == 0 || rep.Metrics.Commits == 0 {
		t.Fatalf("dropped=%d commits=%d: the run exercised nothing", rep.Faults.Dropped, rep.Metrics.Commits)
	}
	t.Logf("commits=%d dropped=%d duplicated=%d reordered=%d prefetched=%d opened=%d",
		rep.Metrics.Commits, rep.Faults.Dropped, rep.Faults.Duplicated, rep.Faults.Reordered,
		rep.Metrics.Prefetched, rep.Metrics.PrefetchOpened)
}

// TestChaosListIntegrity runs the sorted linked list under the same faults:
// the list must stay strictly sorted and structurally sound (no dangling or
// duplicated links from torn multi-object commits).
func TestChaosListIntegrity(t *testing.T) {
	opts := chaosOpts()
	opts.Seed = 11
	rep, err := testbed.Run(context.Background(), opts, list.New(list.Options{KeyRange: 24, InitialSize: 12}))
	if err != nil {
		t.Fatal(err)
	}
	requireChaosHappened(t, rep)
}

// TestChaosDHTPlacement runs the DHT: every surviving key must live in the
// bucket it hashes to (no writes applied to the wrong shard by duplicated
// or reordered commit messages).
func TestChaosDHTPlacement(t *testing.T) {
	opts := chaosOpts()
	opts.Seed = 23
	rep, err := testbed.Run(context.Background(), opts, dht.New(dht.Options{BucketsPerNode: 4}))
	if err != nil {
		t.Fatal(err)
	}
	requireChaosHappened(t, rep)
}

// TestChaosBankRTSScheduler repeats the bank run under the paper's RTS
// scheduler, whose enqueue/hand-off path adds one-way push messages that
// the fault model can drop: queued transactions must still terminate
// (backoff expiry aborts them) and money stays conserved.
func TestChaosBankRTSScheduler(t *testing.T) {
	opts := chaosOpts()
	opts.Seed = 31
	opts.Scheduler, opts.CLThreshold = testbed.RTS, 3
	rep, err := testbed.Run(context.Background(), opts, bank.New(bank.Options{AccountsPerNode: 4}))
	if err != nil {
		t.Fatal(err)
	}
	requireChaosHappened(t, rep)
}

// TestChaosTraceProtocolCheck replays the merged event trace of a full
// chaos run — 15% loss, duplication, reordering, AND crash/restart cycles —
// through the trace/check protocol oracle. Crashes take nodes off the
// network but their recorders keep running, so the merged log is complete
// and the stateful invariants (lock exclusion, hand-off head rule, park
// closure, reply correlation, batch atomicity) must all hold.
func TestChaosTraceProtocolCheck(t *testing.T) {
	opts := chaosOpts()
	opts.Seed = 47
	opts.Trace = true
	opts.TraceCap = 1 << 21 // sized for busy-host goodput, as below
	opts.Scheduler, opts.CLThreshold = testbed.RTS, 3
	rep, err := testbed.Run(context.Background(), opts, bank.New(bank.Options{AccountsPerNode: 4}))
	if err != nil {
		t.Fatal(err)
	}
	requireChaosHappened(t, rep)
	if rep.TraceEvents == 0 {
		t.Fatal("tracing enabled but no events recorded")
	}
	if rep.TraceDropped != 0 {
		t.Fatalf("ring wrapped (%d dropped) — raise TraceCap so the full check runs", rep.TraceDropped)
	}
	t.Logf("protocol check ok over %d events", rep.TraceEvents)
}

// TestChaosDHTTraceBatchAtomicity stresses the owner-grouped commit
// pipeline where it is most batched — DHT transactions write several
// buckets spread over every node — at 20% loss with crash cycling, then
// replays the merged trace through the oracle. The batch-atomicity
// invariant is the target: an acquire batch refused (or a commit aborted)
// part-way must leave NO subset of its commit locks held once the aborted
// attempt's release round has drained, so at trace end no lock may still
// belong to an aborted attempt.
func TestChaosDHTTraceBatchAtomicity(t *testing.T) {
	opts := chaosOpts()
	opts.Seed = 53
	opts.Drop = 0.20
	opts.Trace = true
	// These closed-loop cells commit ~3x faster when the host is busy
	// (fewer overlapping workers → fewer conflict aborts → higher
	// goodput), so size the ring for the fast case: a wrapped ring fails
	// the test below.
	opts.TraceCap = 1 << 21
	rep, err := testbed.Run(context.Background(), opts, dht.New(dht.Options{BucketsPerNode: 4}))
	if err != nil {
		t.Fatal(err)
	}
	requireChaosHappened(t, rep)
	if rep.TraceEvents == 0 {
		t.Fatal("tracing enabled but no events recorded")
	}
	if rep.TraceDropped != 0 {
		t.Fatalf("ring wrapped (%d dropped) — raise TraceCap so the batch-atomicity check runs", rep.TraceDropped)
	}
	t.Logf("protocol + batch-atomicity check ok over %d events", rep.TraceEvents)
}

// TestChaosBankTraceBatchAtomicity repeats the batch-atomicity trace run on
// the bank workload with the RTS scheduler at the base 15% loss: transfers
// are two-object batches whose acquire/release pairs the oracle can match
// exactly, complementing the wider DHT batches above.
func TestChaosBankTraceBatchAtomicity(t *testing.T) {
	opts := chaosOpts()
	opts.Seed = 61
	opts.Trace = true
	opts.TraceCap = 1 << 21 // sized for busy-host goodput, as above
	opts.Scheduler, opts.CLThreshold = testbed.RTS, 3
	rep, err := testbed.Run(context.Background(), opts, bank.New(bank.Options{AccountsPerNode: 4}))
	if err != nil {
		t.Fatal(err)
	}
	requireChaosHappened(t, rep)
	if rep.TraceDropped != 0 {
		t.Fatalf("ring wrapped (%d dropped) — raise TraceCap so the batch-atomicity check runs", rep.TraceDropped)
	}
}

// TestChaosSoakBankHeavyLoss is the soak: 20% drop with aggressive crash
// cycling for several seconds, on a latency-bearing network. Skipped in
// -short mode.
func TestChaosSoakBankHeavyLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	opts := testbed.Options{
		Nodes:          4,
		Seed:           42,
		Drop:           0.20,
		Duplicate:      0.05,
		Reorder:        0.10,
		MaxExtraDelay:  2 * time.Millisecond,
		Latency:        transport.UniformLatency(200 * time.Microsecond),
		CrashEvery:     400 * time.Millisecond,
		WorkersPerNode: 4,
		Duration:       6 * time.Second,
		ReadRatio:      0.5,
		Scheduler:      testbed.RTS,
		CLThreshold:    3,
	}
	rep, err := testbed.Run(context.Background(), opts, bank.New(bank.Options{AccountsPerNode: 5}))
	if err != nil {
		t.Fatal(err)
	}
	requireChaosHappened(t, rep)
	if rep.Crashes < 5 {
		t.Fatalf("only %d crash cycles in a %v soak; crash schedule stalled", rep.Crashes, opts.Duration)
	}
}

// TestChaosOpenLoopZipfTraceOracle drives the bank through the full
// adversarial stack at once: an open-loop Poisson arrival process (ops
// admitted on the clock's schedule, not the workers'), Zipfian key skew
// concentrating conflicts on the hot accounts, 15% message loss with
// duplication/reordering and crash cycling, under the RTS scheduler with
// tracing on. After the heal, the merged trace must satisfy the protocol
// oracle (I1-I7) and the bank's conservation invariant must hold — and
// the open-loop accounting must show real admitted-and-completed load.
func TestChaosOpenLoopZipfTraceOracle(t *testing.T) {
	opts := chaosOpts()
	opts.Seed = 61
	opts.Trace = true
	opts.TraceCap = 1 << 20
	opts.Scheduler, opts.CLThreshold = testbed.RTS, 3
	opts.KeyPicker = workload.NewZipf(0.9).Sample
	opts.Arrival = workload.NewPoisson(600)
	opts.MaxPending = 512
	rep, err := testbed.Run(context.Background(), opts, bank.New(bank.Options{AccountsPerNode: 4}))
	if err != nil {
		t.Fatal(err)
	}
	requireChaosHappened(t, rep)
	if rep.Offered == 0 || rep.Completed == 0 {
		t.Fatalf("open loop made no progress: offered=%d completed=%d shed=%d",
			rep.Offered, rep.Shed, rep.Completed)
	}
	if rep.Offered < rep.Shed+rep.Completed {
		t.Fatalf("open-loop accounting broken: offered=%d shed=%d completed=%d",
			rep.Offered, rep.Shed, rep.Completed)
	}
	if rep.TraceEvents == 0 {
		t.Fatal("tracing enabled but no events recorded")
	}
	if rep.TraceDropped != 0 {
		t.Fatalf("ring wrapped (%d dropped) — raise TraceCap so the full check runs", rep.TraceDropped)
	}
	t.Logf("open loop: offered=%d shed=%d completed=%d trace-events=%d",
		rep.Offered, rep.Shed, rep.Completed, rep.TraceEvents)
}

// TestChaosReadHeavyTraceOracle runs a read-heavy mix (60% audits) under
// the full adversarial stack: 15% loss with duplication/reordering and crash
// cycling, RTS scheduler, tracing on. The merged trace must satisfy the
// oracle (I1-I7), and post-heal money stays conserved.
func TestChaosReadHeavyTraceOracle(t *testing.T) {
	opts := chaosOpts()
	opts.Seed = 71
	opts.ReadRatio = 0.6
	opts.Trace = true
	opts.TraceCap = 1 << 21
	opts.Scheduler, opts.CLThreshold = testbed.RTS, 3
	rep, err := testbed.Run(context.Background(), opts, bank.New(bank.Options{AccountsPerNode: 4}))
	if err != nil {
		t.Fatal(err)
	}
	requireChaosHappened(t, rep)
	if rep.Metrics.ReadOnlyCommits == 0 {
		t.Fatal("no read-only commits; the read-heavy mix never ran an audit")
	}
	if rep.TraceEvents == 0 {
		t.Fatal("tracing enabled but no events recorded")
	}
	if rep.TraceDropped != 0 {
		t.Fatalf("ring wrapped (%d dropped) — raise TraceCap so the full check runs", rep.TraceDropped)
	}
	t.Logf("I1-I7 ok over %d events: ro-commits=%d read-msgs=%d",
		rep.TraceEvents, rep.Metrics.ReadOnlyCommits, rep.Metrics.ReadMsgs)
}
