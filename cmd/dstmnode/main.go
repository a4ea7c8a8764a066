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
// The -drive node seeds a small bank, has internal/testbed's op loop run
// transfer transactions against the cluster for -duration, then prints
// throughput and the conservation check. -openloop switches the loop from
// closed (a worker's next transaction only after its previous one finishes)
// to an open-loop arrival process from internal/workload: arrivals are
// admitted on the clock's schedule regardless of completions, overload
// sheds at -maxpending, and the report adds sojourn (arrival→commit)
// p50/p99 over exact samples. The op stream derives from testbed's default
// seed, so a failing run can be run again. Other nodes serve objects until
// killed or until -exitafter elapses (children always get an -exitafter so
// a crashed parent cannot leak node processes).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"dstm/internal/apps/bank"
	"dstm/internal/testbed"
	"dstm/internal/transport"
	"dstm/internal/workload"
)

// schedulers maps the -scheduler flag's values to testbed's names.
var schedulers = map[string]testbed.Scheduler{
	"rts":     testbed.RTS,
	"tfa":     testbed.TFA,
	"backoff": testbed.Backoff,
}

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
	flag.IntVar(&o.workers, "workers", 8, "concurrent transactions on the drive node")
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

// runNode has testbed assemble this process's node of the TCP cluster and
// either serves or drives.
func runNode(o options) error {
	peers, err := parsePeers(o.peers)
	if err != nil {
		return err
	}
	scheduler, ok := schedulers[o.policy]
	if !ok {
		return fmt.Errorf("unknown scheduler %q", o.policy)
	}
	opts := testbed.Options{
		Peers:          peers,
		Self:           transport.NodeID(o.id),
		Scheduler:      scheduler,
		CLThreshold:    o.threshold,
		WorkersPerNode: o.workers,
		Duration:       o.duration,
		ReadRatio:      0.5,
		MaxPending:     o.maxPending,
	}
	if o.zipf > 0 {
		opts.KeyPicker = workload.NewZipf(o.zipf).Sample
	}
	if o.openLoop {
		switch o.arrival {
		case "poisson":
			opts.Arrival = workload.NewPoisson(o.rate)
		case "constant":
			opts.Arrival = workload.NewConstant(o.rate)
		default:
			return fmt.Errorf("unknown arrival %q (want poisson or constant)", o.arrival)
		}
	}
	c, err := testbed.New(opts)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("dstmnode: node %d listening on %s (%s scheduler, %d peers)\n",
		o.id, peers[opts.Self], c.Rts[0].Policy().Name(), len(peers))

	if !o.drive {
		if o.exitAfter > 0 {
			time.Sleep(o.exitAfter)
			return nil
		}
		select {} // serve forever
	}
	return drive(c, o, opts.Arrival)
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

// drive seeds the bank once every peer listens (testbed's Setup waits for
// them), runs testbed's op loop, closed or open, and audits the total. In
// the open loop completions do not gate admissions, so overload shows up as
// shed arrivals and a fat sojourn tail rather than a sagging offered rate.
func drive(c *testbed.Cluster, o options, arr workload.Arrival) error {
	ctx := context.Background()
	b := bank.New(bank.Options{AccountsPerNode: o.accounts})
	if err := c.Setup(ctx, b); err != nil {
		return fmt.Errorf("seeding failed: %w", err)
	}
	if arr == nil {
		fmt.Printf("dstmnode: seeded %d accounts, driving for %v\n", b.Accounts(), o.duration)
	} else {
		fmt.Printf("dstmnode: seeded %d accounts, open loop %s @ %.0f tx/s for %v (%d workers)\n",
			b.Accounts(), arr.Name(), o.rate, o.duration, o.workers)
	}

	rep, err := c.Drive(ctx, b)
	if err != nil {
		return err
	}
	m := rep.Metrics
	if arr == nil {
		fmt.Printf("dstmnode: %d ops driven, %d commits, %d aborts, %.1f commits/sec\n",
			rep.Completed, m.Commits, m.TotalAborts(), rep.Throughput())
	} else {
		fmt.Printf("dstmnode: offered %d, completed %d, shed %d; %d commits, %d aborts, %.1f commits/sec\n",
			rep.Offered, rep.Completed, rep.Shed, m.Commits, m.TotalAborts(), rep.Throughput())
		fmt.Printf("dstmnode: sojourn p50 %v  p99 %v\n", rep.Sojourn.Quantile(0.50), rep.Sojourn.Quantile(0.99))
	}
	if rep.CheckErr != nil {
		return rep.CheckErr
	}
	fmt.Println("dstmnode: conservation check passed")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dstmnode:", err)
	os.Exit(1)
}
