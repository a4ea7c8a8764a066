// Command dstmnode runs one D-STM node as its own OS process over real TCP
// — the same stack the simulation uses, deployed as a true distributed
// system on loopback (or a LAN).
//
// Start a 3-node cluster in three shells:
//
//	dstmnode -id 0 -peers "0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002" -drive
//	dstmnode -id 1 -peers "0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002"
//	dstmnode -id 2 -peers "0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002"
//
// Or let dstmnode do the shell work itself: -spawn N reserves N loopback
// ports, forks N-1 child node processes of this same binary, and drives
// the workload from node 0 in the parent — one command, a real
// multi-process cluster:
//
//	dstmnode -spawn 3 -duration 2s
//	dstmnode -spawn 3 -openloop -rate 300 -arrival poisson -zipf 0.8
//
// The -drive node seeds a small bank, runs transfer transactions against
// the cluster for -duration, then prints throughput and the conservation
// check. -openloop switches the driver from the closed loop (next
// transaction only after the previous finishes) to an open-loop arrival
// process from internal/workload: arrivals are admitted on the clock's
// schedule regardless of completions, overload sheds at -maxpending, and
// the report adds sojourn (arrival→commit) p50/p99. Other nodes serve
// objects until killed or until -exitafter elapses (children always get
// an -exitafter so a crashed parent cannot leak node processes).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dstm/internal/apps/bank"
	"dstm/internal/cluster"
	"dstm/internal/core"
	"dstm/internal/sched"
	"dstm/internal/stats"
	"dstm/internal/stm"
	"dstm/internal/transport"
	"dstm/internal/vclock"
	"dstm/internal/workload"
)

type options struct {
	id         int
	peers      string
	policy     string
	drive      bool
	duration   time.Duration
	accounts   int
	threshold  int
	spawn      int
	exitAfter  time.Duration
	openLoop   bool
	rate       float64
	arrival    string
	zipf       float64
	workers    int
	maxPending int
}

func main() {
	var o options
	flag.IntVar(&o.id, "id", 0, "this node's ID (index into -peers)")
	flag.StringVar(&o.peers, "peers", "0=127.0.0.1:7000", "comma-separated id=host:port list for every node")
	flag.StringVar(&o.policy, "scheduler", "rts", "rts | tfa | backoff")
	flag.BoolVar(&o.drive, "drive", false, "seed a bank and drive transactions from this node")
	flag.DurationVar(&o.duration, "duration", 3*time.Second, "drive duration")
	flag.IntVar(&o.accounts, "accounts", 16, "bank accounts to seed (drive node only)")
	flag.IntVar(&o.threshold, "clthreshold", 3, "RTS contention-level threshold")
	flag.IntVar(&o.spawn, "spawn", 0, "spawn an N-process cluster on loopback and drive from node 0")
	flag.DurationVar(&o.exitAfter, "exitafter", 0, "serve nodes exit after this long (0 = forever)")
	flag.BoolVar(&o.openLoop, "openloop", false, "drive an open-loop arrival process instead of the closed loop")
	flag.Float64Var(&o.rate, "rate", 200, "open-loop offered rate (tx/sec)")
	flag.StringVar(&o.arrival, "arrival", "poisson", "open-loop arrival process: poisson | constant")
	flag.Float64Var(&o.zipf, "zipf", 0, "Zipfian key-skew theta (0 = uniform)")
	flag.IntVar(&o.workers, "workers", 8, "open-loop executor goroutines")
	flag.IntVar(&o.maxPending, "maxpending", 1<<14, "open-loop admission queue cap (arrivals beyond it are shed)")
	flag.Parse()

	if o.spawn > 0 {
		if err := runSpawn(o); err != nil {
			fatal(err)
		}
		return
	}
	if err := runNode(o); err != nil {
		fatal(err)
	}
}

// runSpawn is the -spawn N coordinator: it reserves N loopback ports,
// forks N-1 serve-mode children of this same executable, and then runs
// node 0 in-process as the driver. Children inherit our stdout/stderr
// and carry an -exitafter fuse so they cannot outlive a crashed parent
// for long; on the normal path the parent kills and reaps them.
func runSpawn(o options) error {
	if o.spawn < 2 {
		return fmt.Errorf("-spawn wants at least 2 nodes, got %d", o.spawn)
	}
	addrs, err := reservePorts(o.spawn)
	if err != nil {
		return err
	}
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = fmt.Sprintf("%d=%s", i, a)
	}
	peers := strings.Join(parts, ",")

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fuse := o.duration + 30*time.Second
	children := make([]*exec.Cmd, 0, o.spawn-1)
	defer func() {
		for _, c := range children {
			_ = c.Process.Kill()
			_ = c.Wait()
		}
	}()
	for i := 1; i < o.spawn; i++ {
		cmd := exec.Command(exe,
			"-id", strconv.Itoa(i),
			"-peers", peers,
			"-scheduler", o.policy,
			"-clthreshold", strconv.Itoa(o.threshold),
			"-exitafter", fuse.String(),
		)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning node %d: %w", i, err)
		}
		children = append(children, cmd)
	}
	fmt.Printf("dstmnode: spawned %d child node processes\n", len(children))

	o.id, o.peers, o.drive, o.spawn = 0, peers, true, 0
	return runNode(o)
}

// reservePorts grabs n distinct loopback ports by listening on :0 and
// closing again. The tiny bind race after close is acceptable on a CI
// loopback; it buys a one-command cluster with no port configuration.
func reservePorts(n int) ([]string, error) {
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// runNode assembles one node's full stack (TCP transport, scheduler
// policy, STM runtime) and either serves or drives.
func runNode(o options) error {
	peers, err := parsePeers(o.peers)
	if err != nil {
		return err
	}
	listen, ok := peers[transport.NodeID(o.id)]
	if !ok {
		return fmt.Errorf("node %d not present in -peers", o.id)
	}

	tn, err := transport.NewTCPNode(transport.NodeID(o.id), listen, peers)
	if err != nil {
		return err
	}
	defer tn.Close()

	st := stats.NewTable(time.Millisecond)
	var pol sched.Policy
	switch o.policy {
	case "rts":
		pol = core.New(core.Options{CLThreshold: o.threshold})
	case "tfa":
		pol = sched.NewTFA()
	case "backoff":
		pol = sched.NewBackoff(st, 50*time.Millisecond)
	default:
		return fmt.Errorf("unknown scheduler %q", o.policy)
	}

	ep := cluster.NewEndpoint(tn, &vclock.Clock{})
	rt := stm.NewRuntime(ep, len(peers), pol, st)
	fmt.Printf("dstmnode: node %d listening on %s (%s scheduler, %d peers)\n",
		o.id, tn.Addr(), pol.Name(), len(peers))

	if !o.drive {
		if o.exitAfter > 0 {
			time.Sleep(o.exitAfter)
			return nil
		}
		select {} // serve forever
	}

	if o.openLoop {
		return driveOpenLoop(rt, o)
	}
	return driveBank(rt, o.accounts, o.duration)
}

func parsePeers(s string) (map[transport.NodeID]string, error) {
	peers := make(map[transport.NodeID]string)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer entry %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil {
			return nil, fmt.Errorf("bad peer id %q: %v", kv[0], err)
		}
		peers[transport.NodeID(id)] = kv[1]
	}
	return peers, nil
}

// seedBank creates the bank and retries Setup until every peer answers:
// object homes are spread across nodes, so seeding succeeds only once
// everyone is listening.
func seedBank(ctx context.Context, rt *stm.Runtime, accounts int, zipf float64) (*bank.Bank, error) {
	b := bank.New(bank.Options{AccountsPerNode: accounts})
	if zipf > 0 {
		z := workload.NewZipf(zipf)
		b.SetKeyPicker(func(rng *rand.Rand, n int) int { return z.Sample(rng, n) })
	}
	var setupErr error
	for attempt := 0; attempt < 50; attempt++ {
		setupErr = b.Setup(ctx, []*stm.Runtime{rt})
		if setupErr == nil {
			return b, nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return nil, fmt.Errorf("seeding failed (are all peers up?): %w", setupErr)
}

// driveBank seeds accounts, runs closed-loop transfers, and audits the
// total.
func driveBank(rt *stm.Runtime, accounts int, d time.Duration) error {
	ctx := context.Background()
	b, err := seedBank(ctx, rt, accounts, 0)
	if err != nil {
		return err
	}
	fmt.Printf("dstmnode: seeded %d accounts, driving for %v\n", b.Accounts(), d)

	runCtx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	ops := 0
	for runCtx.Err() == nil {
		if err := b.Op(runCtx, rt, rng, rng.Float64() < 0.5); err != nil {
			if runCtx.Err() != nil {
				break
			}
			return err
		}
		ops++
	}

	m := rt.Metrics().Snapshot()
	fmt.Printf("dstmnode: %d ops driven, %d commits, %d aborts, %.1f commits/sec\n",
		ops, m.Commits, m.TotalAborts(), float64(m.Commits)/d.Seconds())
	if err := b.Check(ctx, rt); err != nil {
		return err
	}
	fmt.Println("dstmnode: conservation check passed")
	return nil
}

// driveOpenLoop admits bank transactions on an arrival process's
// schedule — completions do not gate admissions, so overload shows up as
// shed arrivals and a fat sojourn tail rather than a sagging offered
// rate. Sojourn is measured arrival→completion, queueing included.
func driveOpenLoop(rt *stm.Runtime, o options) error {
	ctx := context.Background()
	b, err := seedBank(ctx, rt, o.accounts, o.zipf)
	if err != nil {
		return err
	}

	var arr workload.Arrival
	switch o.arrival {
	case "poisson":
		arr = workload.NewPoisson(o.rate)
	case "constant":
		arr = workload.NewConstant(o.rate)
	default:
		return fmt.Errorf("unknown arrival %q (want poisson or constant)", o.arrival)
	}
	fmt.Printf("dstmnode: seeded %d accounts, open loop %s @ %.0f tx/s for %v (%d workers)\n",
		b.Accounts(), arr.Name(), o.rate, o.duration, o.workers)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	pending := make(chan time.Time, o.maxPending)
	var (
		shed      atomic.Uint64
		completed atomic.Uint64
		opErr     atomic.Value
		wg        sync.WaitGroup
	)
	hists := make([]*stats.LatencyHist, o.workers)
	for w := 0; w < o.workers; w++ {
		hists[w] = &stats.LatencyHist{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(time.Now().UnixNano() + int64(w)))
			for arrived := range pending {
				if err := b.Op(runCtx, rt, rng, rng.Float64() < 0.5); err != nil {
					if runCtx.Err() != nil {
						return
					}
					opErr.CompareAndSwap(nil, err)
					cancel()
					return
				}
				hists[w].Observe(time.Since(arrived))
				completed.Add(1)
			}
		}(w)
	}

	driveCtx, driveCancel := context.WithTimeout(runCtx, o.duration)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	offered := workload.Drive(driveCtx, arr, rng, 0, func(int) bool {
		select {
		case pending <- time.Now():
		default:
			shed.Add(1)
		}
		return true
	})
	driveCancel()
	close(pending)
	wg.Wait()
	if err, _ := opErr.Load().(error); err != nil {
		return err
	}

	var soj stats.HistSnapshot
	for _, h := range hists {
		soj.Merge(h.Snapshot())
	}
	m := rt.Metrics().Snapshot()
	fmt.Printf("dstmnode: offered %d, completed %d, shed %d; %d commits, %d aborts, %.1f commits/sec\n",
		offered, completed.Load(), shed.Load(), m.Commits, m.TotalAborts(),
		float64(m.Commits)/o.duration.Seconds())
	fmt.Printf("dstmnode: sojourn p50 %v  p99 %v\n", soj.Quantile(0.50), soj.Quantile(0.99))
	if err := b.Check(ctx, rt); err != nil {
		return err
	}
	fmt.Println("dstmnode: conservation check passed")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dstmnode:", err)
	os.Exit(1)
}
