package testbed

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dstm/internal/apps/bank"
	"dstm/internal/cc"
	"dstm/internal/cluster"
	"dstm/internal/object"
	"dstm/internal/stm"
	"dstm/internal/transport"
	"dstm/internal/workload"
)

// TestDrive runs the one op loop over every fabric, loop shape and
// scheduler on a traced bank cell, plus an overloaded open-loop cell whose
// admission queue must shed. Each cell must conserve money, account for
// every operation it offered, sample exactly the completed ones, and leave
// a trace the protocol oracle accepts. scripts/ci.sh perf runs the
// open-loop rows as its open-loop smoke.
func TestDrive(t *testing.T) {
	type cell struct {
		name string
		opts Options
	}
	var cells []cell
	for _, loop := range []string{"closed", "open"} {
		for _, fabric := range []string{"memnet", "tcp"} {
			for _, s := range Schedulers {
				o := Options{
					Nodes:          3,
					Seed:           5,
					Transport:      fabric,
					Latency:        transport.UniformLatency(100 * time.Microsecond),
					Scheduler:      s,
					WorkersPerNode: 2,
					Duration:       100 * time.Millisecond,
					ReadRatio:      0.5,
				}
				if loop == "open" {
					o.Arrival = workload.NewPoisson(400)
				}
				cells = append(cells, cell{loop + "/" + fabric + "/" + string(s), o})
			}
		}
	}
	// One worker, arrivals far beyond its service rate, a tiny queue.
	cells = append(cells, cell{"open/overload", Options{
		Nodes:          1,
		Scheduler:      RTS,
		WorkersPerNode: 1,
		Duration:       60 * time.Millisecond,
		ReadRatio:      0.5,
		Arrival:        workload.NewConstant(50000),
		MaxPending:     4,
	}})
	for _, tc := range cells {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.opts.Trace = true
			tc.opts.TraceCap = 1 << 19 // nothing may wrap: a dropped event downgrades the oracle
			c, err := New(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			b := bank.New(bank.Options{AccountsPerNode: 4})
			if err := c.Setup(ctx, b); err != nil {
				t.Fatal(err)
			}
			rep, err := c.Drive(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Finish(&rep); err != nil {
				t.Fatal(err)
			}
			t.Logf("offered=%d shed=%d completed=%d failed=%d left=%d commits=%d p50=%v p99=%v events=%d",
				rep.Offered, rep.Shed, rep.Completed, rep.Failed, rep.Left, rep.Metrics.Commits,
				rep.Sojourn.Quantile(0.5), rep.Sojourn.Quantile(0.99), rep.TraceEvents)
			if rep.CheckErr != nil {
				t.Fatalf("conservation: %v", rep.CheckErr)
			}
			if rep.Completed == 0 || rep.Metrics.Commits == 0 {
				t.Fatalf("nothing ran: completed=%d commits=%d", rep.Completed, rep.Metrics.Commits)
			}
			if rep.Offered != rep.Shed+rep.Completed+rep.Failed+rep.Left {
				t.Fatalf("offered %d != shed %d + completed %d + failed %d + left %d",
					rep.Offered, rep.Shed, rep.Completed, rep.Failed, rep.Left)
			}
			if uint64(len(rep.Sojourn)) != rep.Completed {
				t.Fatalf("%d sojourn samples for %d completed operations", len(rep.Sojourn), rep.Completed)
			}
			if p50, p99 := rep.Sojourn.Quantile(0.5), rep.Sojourn.Quantile(0.99); p50 <= 0 || p99 < p50 {
				t.Fatalf("bad quantiles: p50=%v p99=%v", p50, p99)
			}
			if tc.opts.Arrival == nil && rep.Shed != 0 {
				t.Fatalf("closed loop shed %d operations", rep.Shed)
			}
			if tc.opts.MaxPending > 0 && rep.Shed == 0 {
				t.Fatalf("nothing shed at MaxPending=%d (offered=%d)", tc.opts.MaxPending, rep.Offered)
			}
			if rep.TraceEvents == 0 || rep.TraceDropped != 0 {
				t.Fatalf("trace: %d events, %d dropped", rep.TraceEvents, rep.TraceDropped)
			}
			if rep.ProtocolErr != nil {
				t.Fatalf("protocol check failed over %d events:\n%v", rep.TraceEvents, rep.ProtocolErr)
			}
		})
	}
}

func TestNewRejects(t *testing.T) {
	for name, o := range map[string]Options{
		"unknown scheduler": {Nodes: 2, Scheduler: "nope"},
		"unknown transport": {Nodes: 2, Scheduler: TFA, Transport: "udp"},
		"faults over tcp":   {Nodes: 2, Scheduler: TFA, Transport: "tcp", Drop: 0.1},
		"self not a peer":   {Scheduler: TFA, Peers: map[transport.NodeID]string{0: "127.0.0.1:0"}, Self: 1},
	} {
		if c, err := New(o); err == nil {
			c.Close()
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := Samples{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]time.Duration{0: 1, 0.5: 5, 0.9: 9, 0.99: 10, 1: 10} {
		if got := s.Quantile(q); got != want {
			t.Errorf("Quantile(%v) = %d, want %d", q, got, want)
		}
	}
	if got := (Samples{}).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v", got)
	}
}

// TestRunCrashOnly: a crash schedule with every fault rate zero still arms
// the fault model and puts every endpoint on the lossy retry policy, and the
// run's report counts the crashes; a run with no fault keeps the default.
func TestRunCrashOnly(t *testing.T) {
	o := Options{
		Nodes:          3,
		Seed:           3,
		Scheduler:      TFA,
		CrashEvery:     40 * time.Millisecond,
		WorkersPerNode: 2,
		Duration:       200 * time.Millisecond,
		ReadRatio:      0.5,
	}
	for _, tc := range []struct {
		opts Options
		want cluster.RetryPolicy
	}{
		{o, lossyRetry},
		{Options{Nodes: 3, Scheduler: TFA}, cluster.DefaultRetryPolicy()},
	} {
		c, err := New(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, rt := range c.Rts {
			if got := rt.Endpoint().RetryPolicy(); got != tc.want {
				t.Errorf("crash every %v: node %d retry policy %+v, want %+v", tc.opts.CrashEvery, rt.Self(), got, tc.want)
			}
		}
		c.Close()
	}
	rep, err := Run(context.Background(), o, bank.New(bank.Options{AccountsPerNode: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Fatalf("no crash in a %v window crashing every %v", o.Duration, o.CrashEvery)
	}
	if rep.Metrics.Commits == 0 {
		t.Fatal("no commits")
	}
	t.Logf("crashes=%d dropped=%d commits=%d stale-entries=%d", rep.Crashes, rep.Faults.Dropped, rep.Metrics.Commits, rep.StaleEntries)
}

// drivenCluster drives a short bank run on three nodes, checks that its
// stores come out clean, and returns the cluster with the node holding the
// most objects.
func drivenCluster(t *testing.T) (*Cluster, *stm.Runtime) {
	t.Helper()
	c, err := New(Options{Nodes: 3, Scheduler: TFA, WorkersPerNode: 2, Duration: 50 * time.Millisecond, ReadRatio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx := context.Background()
	b := bank.New(bank.Options{AccountsPerNode: 4})
	if err := c.Setup(ctx, b); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Drive(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.checkStores(ctx, &rep); err != nil || rep.LeftLocks != 0 || rep.StaleEntries != 0 || rep.Err() != nil {
		t.Fatalf("healthy cluster: lookup %v, %d locks left, %d stale entries, verdict %v", err, rep.LeftLocks, rep.StaleEntries, rep.Err())
	}
	holder := c.Rts[0]
	for _, rt := range c.Rts {
		if len(rt.Store().IDs()) > len(holder.Store().IDs()) {
			holder = rt
		}
	}
	return c, holder
}

// TestStaleEntryFailsVerdict points one home entry at the wrong node after
// a drive: the directory check counts it, whatever the checking node's hint
// says, and the verdict fails.
func TestStaleEntryFailsVerdict(t *testing.T) {
	c, holder := drivenCluster(t)
	ctx := context.Background()
	id := holder.Store().IDs()[0]
	home := c.Rts[holder.Locator().Home(id)]
	wrong := (holder.Self() + 1) % 3
	if err := home.Locator().Moved([]object.ID{id}, wrong); err != nil {
		t.Fatal(err)
	}
	// A hint naming the holder, as gossip may leave one at any time, does
	// not hide the entry: the check reads the homes.
	c.Rts[0].Locator().NoteOwner(id, holder.Self())
	var rep Report
	if err := c.checkStores(ctx, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.StaleEntries != 1 {
		t.Fatalf("%d stale entries after misdirecting %s, want 1", rep.StaleEntries, id)
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), string(id)) {
		t.Fatalf("verdict %v, want the stale entry %s", err, id)
	}
}

// TestLeftLockFailsVerdict commit-locks one object after a drive, as a
// holder that never let go would leave it: the store walk counts it and the
// verdict names it.
func TestLeftLockFailsVerdict(t *testing.T) {
	c, holder := drivenCluster(t)
	id := holder.Store().IDs()[0]
	const tx = 0xdead
	entry := []object.LockEntry{{ID: id, Expect: holder.Store().State(id).Ver}}
	if _, ok := holder.Store().LockBatch(tx, entry); !ok {
		t.Fatalf("could not lock %s", id)
	}
	var rep Report
	if err := c.checkStores(context.Background(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.LeftLocks != 1 || rep.StaleEntries != 0 {
		t.Fatalf("%d locks left, %d stale entries after locking %s, want 1 and 0", rep.LeftLocks, rep.StaleEntries, id)
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), string(id)) || !strings.Contains(err.Error(), "dead") {
		t.Fatalf("verdict %v, want the lock tx %x holds on %s", err, tx, id)
	}
}

// TestLostHandoverFailsVerdict locks one object at its holder after a drive
// and removes it, as a handover whose lock reply was lost for good leaves
// it: no store holds it, the directory walk counts its home's entry, and the
// verdict names it.
func TestLostHandoverFailsVerdict(t *testing.T) {
	c, holder := drivenCluster(t)
	id := holder.Store().IDs()[0]
	const tx = 0xdead
	entry := []object.LockEntry{{ID: id, Expect: holder.Store().State(id).Ver}}
	if _, ok := holder.Store().LockBatch(tx, entry); !ok {
		t.Fatalf("could not lock %s", id)
	}
	if err := holder.Store().Migrate(id, tx); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := c.checkStores(context.Background(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.StaleEntries != 1 || rep.LeftLocks != 0 {
		t.Fatalf("%d stale entries, %d locks left after losing %s, want 1 and 0", rep.StaleEntries, rep.LeftLocks, id)
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), string(id)) {
		t.Fatalf("verdict %v, want the lost object %s", err, id)
	}
}

// TestDirectoryCheckAsksEachHomeOnce: the directory check costs one round
// trip whatever the object count, so 400 objects on 10 ms links fit a
// 250 ms budget that one lookup per object would overrun about twentyfold;
// and a lookup that fails is the check's error, never a stale entry.
func TestDirectoryCheckAsksEachHomeOnce(t *testing.T) {
	c, err := New(Options{Nodes: 4, Scheduler: TFA, Latency: transport.UniformLatency(10 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	for _, rt := range c.Rts {
		ids := make([]object.ID, 100)
		for i := range ids {
			ids[i] = object.ID(fmt.Sprintf("obj/%d/%d", rt.Self(), i))
			rt.Store().Install(ids[i], &bank.Account{}, object.Version{})
		}
		if _, _, err := rt.Locator().RegisterBatch(ctx, ids, rt.Self()); err != nil {
			t.Fatal(err)
		}
	}
	budget, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
	defer cancel()
	var rep Report
	if err := c.checkStores(budget, &rep); err != nil || rep.StaleEntries != 0 {
		t.Fatalf("lookup error %v, %d stale entries (%v)", err, rep.StaleEntries, rep.stale)
	}
	done, cancelDone := context.WithCancel(ctx)
	cancelDone()
	if err := c.checkStores(done, &rep); err == nil || rep.StaleEntries != 0 {
		t.Fatalf("no time left: lookup error %v and %d stale entries, want an error and none counted", err, rep.StaleEntries)
	}
}

// TestCreateRootsIsOneRegistrationWave: seeding k accounts on each of n nodes
// is one wave of registrations, whatever k: at most one KindRegisterBatch
// request from each node to each other node, every one of them sent before
// the first reply arrives (all nodes at once), and each home then names the
// account's creator, node i mod n.
func TestCreateRootsIsOneRegistrationWave(t *testing.T) {
	const n = 4
	for _, k := range []int{1, 8, 64} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			c, err := New(Options{Nodes: n, Scheduler: TFA, Latency: transport.UniformLatency(20 * time.Millisecond)})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var requests, late, replies atomic.Int64
			c.net.SetInterceptor(func(m *transport.Message) bool {
				if m.Kind == cc.KindRegisterBatch && m.IsReply {
					replies.Add(1)
				} else if m.Kind == cc.KindRegisterBatch {
					requests.Add(1)
					if replies.Load() > 0 {
						late.Add(1)
					}
				}
				return true
			})
			ctx := context.Background()
			b := bank.New(bank.Options{AccountsPerNode: k})
			if err := c.Setup(ctx, b); err != nil {
				t.Fatal(err)
			}
			if got := requests.Load(); got > n*(n-1) || late.Load() > 0 {
				t.Fatalf("%d register requests, %d of them after a reply; want at most %d, all in one wave", got, late.Load(), n*(n-1))
			}
			ids := make([]object.ID, b.Accounts())
			for i := range ids {
				ids[i] = bank.AccountID(i)
			}
			owners, _, err := c.Rts[0].Locator().AskHomes(ctx, ids)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				if owners[id] != transport.NodeID(i%n) {
					t.Fatalf("home names node %d for %s, want its creator %d", owners[id], id, i%n)
				}
			}
		})
	}
}

// TestDriveNodeSeedsOnceItsPeerListens: the node that drives a
// multi-process cluster starts half a second before its peer, and one Setup
// still seeds: it waits for the peer to listen before registering anything.
func TestDriveNodeSeedsOnceItsPeerListens(t *testing.T) {
	peers := make(map[transport.NodeID]string)
	for id := range transport.NodeID(2) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers[id] = l.Addr().String()
		l.Close()
	}
	drive, err := New(Options{Peers: peers, Self: 0, Scheduler: TFA})
	if err != nil {
		t.Fatal(err)
	}
	defer drive.Close()
	late := make(chan *Cluster, 1)
	go func() {
		time.Sleep(500 * time.Millisecond)
		c, err := New(Options{Peers: peers, Self: 1, Scheduler: TFA})
		if err != nil {
			t.Error(err)
		}
		late <- c
	}()
	defer func() {
		if c := <-late; c != nil {
			c.Close()
		}
	}()

	ctx := context.Background()
	b := bank.New(bank.Options{AccountsPerNode: 8})
	if err := drive.Setup(ctx, b); err != nil {
		t.Fatal(err)
	}
	ids := make([]object.ID, b.Accounts())
	for i := range ids {
		ids[i] = bank.AccountID(i)
	}
	owners, _, err := drive.Rts[0].Locator().AskHomes(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if owners[id] != 0 {
			t.Fatalf("home names node %d for %s, want the drive node", owners[id], id)
		}
	}
}
