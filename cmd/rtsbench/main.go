// Command rtsbench regenerates the paper's tables and figures on a
// simulated cluster.
//
// Usage:
//
//	rtsbench -experiment table1                 # Table I
//	rtsbench -experiment fig4                   # Fig. 4 (low contention)
//	rtsbench -experiment fig5                   # Fig. 5 (high contention)
//	rtsbench -experiment speedup                # Fig. 6 summary
//	rtsbench -experiment cell                   # one cell's full breakdown
//	rtsbench -experiment all
//
// Every experiment is a grid of paper cells — an application, a read ratio,
// a node count and a scheduler on testbed.PaperCell's defaults — run by one
// cell runner. Flags tune scale: -nodes, -maxnodes, -duration, -workers,
// -objects, -delayscale, -clthreshold, -adaptive, -bench. Fault injection
// (lossy links, see DESIGN.md "Fault model"): -drop, -duplicate, -reorder.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dstm/internal/apps"
	"dstm/internal/apps/bank"
	"dstm/internal/apps/dht"
	"dstm/internal/apps/list"
	"dstm/internal/apps/rbtree"
	"dstm/internal/apps/vacation"
	"dstm/internal/stm"
	"dstm/internal/testbed"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rtsbench:", err)
		os.Exit(1)
	}
}

// run parses the command line and prints the experiment it names to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rtsbench", flag.ExitOnError)
	var (
		experiment = fs.String("experiment", "all", "table1 | fig4 | fig5 | speedup | cell | all")
		nodes      = fs.Int("nodes", 8, "node count for table1/speedup")
		maxNodes   = fs.Int("maxnodes", 16, "largest node count in fig4/fig5 sweeps")
		duration   = fs.Duration("duration", 250*time.Millisecond, "measurement window per cell")
		workers    = fs.Int("workers", 8, "concurrent transactions per node")
		objects    = fs.Int("objects", 8, "shared objects per node (paper: 5-10)")
		delayScale = fs.Float64("delayscale", 0.01, "scale applied to the 1-50ms link band")
		threshold  = fs.Int("clthreshold", 3, "RTS contention-level threshold")
		adaptive   = fs.Bool("adaptive", false, "adapt the CL threshold at runtime")
		flat       = fs.Bool("flat", false, "use flat nesting instead of closed nesting")
		benchList  = fs.String("bench", "", "comma-separated benchmark subset (vacation,bank,ll,rbtree,bst,dht)")
		seed       = fs.Int64("seed", 1, "workload seed")
		drop       = fs.Float64("drop", 0, "message drop probability (fault injection)")
		duplicate  = fs.Float64("duplicate", 0, "message duplication probability (fault injection)")
		reorder    = fs.Float64("reorder", 0, "message reorder probability (fault injection)")
		traceOn    = fs.Bool("trace", false, "record protocol events and run the trace checker on every cell")
		traceFile  = fs.String("tracefile", "", "write the merged trace as JSONL (implies -trace; multi-cell experiments overwrite per cell)")
		traceCap   = fs.Int("tracecap", 0, "per-node trace ring capacity (0 = default)")
		scheduler  = fs.String("scheduler", "RTS", "scheduler for -experiment cell (RTS | TFA | TFA+Backoff)")
		readRatio  = fs.Float64("readratio", 0.9, "read fraction for -experiment cell")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits here

	g := grid{base: testbed.PaperCell(*delayScale, *seed), objects: *objects, w: w}
	g.base.WorkersPerNode = *workers
	g.base.Duration = *duration
	g.base.CLThreshold = *threshold
	g.base.AdaptiveCL = *adaptive
	g.base.FlatNesting = *flat
	g.base.Drop, g.base.Duplicate, g.base.Reorder = *drop, *duplicate, *reorder
	g.base.MaxExtraDelay = time.Millisecond
	g.base.Trace = *traceOn || *traceFile != ""
	g.base.TraceCap = *traceCap
	g.base.TracePath = *traceFile
	var err error
	if g.apps, err = parseApps(*benchList); err != nil {
		return err
	}
	ctx := context.Background()

	switch *experiment {
	case "cell":
		return g.cells(ctx, *readRatio, *nodes, testbed.Scheduler(*scheduler))
	case "table1":
		return g.table1(ctx, *nodes)
	case "fig4":
		return g.figure(ctx, low, sweepNodeCounts(*maxNodes))
	case "fig5":
		return g.figure(ctx, high, sweepNodeCounts(*maxNodes))
	case "speedup":
		return g.speedup(ctx, *nodes)
	case "all":
		if err := g.table1(ctx, *nodes); err != nil {
			return err
		}
		if err := g.figure(ctx, low, sweepNodeCounts(*maxNodes)); err != nil {
			return err
		}
		if err := g.figure(ctx, high, sweepNodeCounts(*maxNodes)); err != nil {
			return err
		}
		return g.speedup(ctx, *nodes)
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
}

// paperApps are the six benchmarks' -bench names in the paper's reporting
// order.
var paperApps = []string{"vacation", "bank", "ll", "rbtree", "bst", "dht"}

// newApp builds the benchmark -bench names, sized for a cell of nodes nodes
// with perNode shared objects each.
func newApp(name string, perNode, nodes int) (apps.Benchmark, error) {
	switch name {
	case "bank":
		return bank.New(bank.Options{AccountsPerNode: perNode}), nil
	case "dht":
		return dht.New(dht.Options{BucketsPerNode: perNode}), nil
	case "ll":
		return list.New(list.Options{KeyRange: perNode * nodes}), nil
	case "bst":
		return rbtree.NewBST(rbtree.Options{KeyRange: 2 * perNode * nodes}), nil
	case "rbtree":
		return rbtree.New(rbtree.Options{KeyRange: 2 * perNode * nodes}), nil
	case "vacation":
		per := max(perNode/4, 1)
		return vacation.New(vacation.Options{ResourcesPerKindPerNode: per, CustomersPerNode: per}), nil
	default:
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
}

// parseApps turns -bench into benchmark names, all six when it is empty.
func parseApps(s string) ([]string, error) {
	if s == "" {
		return paperApps, nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if _, err := newApp(name, 1, 1); err != nil {
			return nil, err
		}
		out = append(out, name)
	}
	return out, nil
}

// label is a benchmark's display name, the application's own.
func label(name string) string {
	b, _ := newApp(name, 1, 1)
	return b.Name()
}

// mix is one of the paper's two workload mixes (§IV-A).
type mix struct {
	contention string  // "Low" or "High"
	readRatio  float64 // fraction of read-only operations
	figure     int     // the throughput figure that sweeps it
}

var (
	low  = mix{"Low", 0.9, 4}
	high = mix{"High", 0.1, 5}
)

// grid is an experiment: its cells share base and differ only in the
// application, the mix, the node count and the scheduler.
type grid struct {
	base    testbed.Options
	objects int      // shared objects per node
	apps    []string // benchmark names, in reporting order
	w       io.Writer
}

// cell runs one paper cell and returns its report; the error is the run's,
// its verdict included (the application's invariant, the directory and,
// when tracing, the protocol oracle).
func (g grid) cell(ctx context.Context, app string, readRatio float64, nodes int, s testbed.Scheduler) (testbed.Report, error) {
	b, err := newApp(app, g.objects, nodes)
	if err != nil {
		return testbed.Report{}, err
	}
	o := g.base
	o.Nodes, o.Scheduler, o.ReadRatio = nodes, s, readRatio
	rep, err := testbed.Run(ctx, o, b)
	if err != nil {
		return rep, fmt.Errorf("%s: %w", app, err)
	}
	return rep, nil
}

// cells runs one cell per benchmark and prints its full breakdown. The
// one-cell mode is the natural home of -tracefile: the JSONL on disk is
// exactly that cell's run.
func (g grid) cells(ctx context.Context, readRatio float64, nodes int, s testbed.Scheduler) error {
	for _, app := range g.apps {
		rep, err := g.cell(ctx, app, readRatio, nodes, s)
		if rep.Elapsed > 0 {
			// Drive ran: show the breakdown even when the verdict failed.
			fmt.Fprintf(g.w, "%s / %s (read %.0f%%)\n", label(app), s, 100*readRatio)
			fmt.Fprintln(g.w, metricsTable(rep))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// table1 prints Table I: each benchmark's nested abort rate under RTS and
// under plain TFA, at both mixes, on nodes nodes.
func (g grid) table1(ctx context.Context, nodes int) error {
	fmt.Fprintf(g.w, "Table I: Abort rate of nested transactions (parent-caused / total)\n")
	fmt.Fprintf(g.w, "%-12s | %-17s | %-17s\n", "", "Low Contention", "High Contention")
	fmt.Fprintf(g.w, "%-12s | %7s  %7s | %7s  %7s\n", "Benchmark", "RTS", "TFA", "RTS", "TFA")
	fmt.Fprintln(g.w, strings.Repeat("-", 54))
	for _, app := range g.apps {
		row := []any{label(app)}
		for _, m := range []mix{low, high} {
			for _, s := range []testbed.Scheduler{testbed.RTS, testbed.TFA} {
				rep, err := g.cell(ctx, app, m.readRatio, nodes, s)
				if err != nil {
					return err
				}
				row = append(row, 100*rep.NestedAbortRate())
			}
		}
		fmt.Fprintf(g.w, "%-12s | %6.1f%%  %6.1f%% | %6.1f%%  %6.1f%%\n", row...)
	}
	fmt.Fprintln(g.w)
	return nil
}

// figure prints one sub-figure of Fig. 4 or 5 per benchmark: the three
// schedulers' throughput at m across the node counts.
func (g grid) figure(ctx context.Context, m mix, counts []int) error {
	for _, app := range g.apps {
		fmt.Fprintf(g.w, "Figure %d: %s in %s Contention (throughput, txns/sec)\n", m.figure, label(app), m.contention)
		fmt.Fprintf(g.w, "%-6s", "Nodes")
		for _, s := range testbed.Schedulers {
			fmt.Fprintf(g.w, " %12s", s)
		}
		fmt.Fprintln(g.w)
		for _, n := range counts {
			fmt.Fprintf(g.w, "%-6d", n)
			for _, s := range testbed.Schedulers {
				rep, err := g.cell(ctx, app, m.readRatio, n, s)
				if err != nil {
					return err
				}
				fmt.Fprintf(g.w, " %12.1f", rep.Throughput())
			}
			fmt.Fprintln(g.w)
		}
		fmt.Fprintln(g.w)
	}
	return nil
}

// speedup prints Figure 6 on nodes nodes: each benchmark's RTS throughput
// over TFA's and over TFA+Backoff's, at both mixes (0 when the competitor
// committed nothing).
func (g grid) speedup(ctx context.Context, nodes int) error {
	fmt.Fprintln(g.w, "Figure 6: Summary of Throughput Speedup (RTS / competitor)")
	fmt.Fprintf(g.w, "%-12s %10s %16s %10s %16s\n",
		"Benchmark", "TFA(Low)", "TFA+Backoff(Low)", "TFA(High)", "TFA+Backoff(High)")
	fmt.Fprintln(g.w, strings.Repeat("-", 70))
	for _, app := range g.apps {
		row := []any{label(app)}
		for _, m := range []mix{low, high} {
			tp := make(map[testbed.Scheduler]float64, len(testbed.Schedulers))
			for _, s := range testbed.Schedulers {
				rep, err := g.cell(ctx, app, m.readRatio, nodes, s)
				if err != nil {
					return err
				}
				tp[s] = rep.Throughput()
			}
			for _, s := range []testbed.Scheduler{testbed.TFA, testbed.Backoff} {
				sp := 0.0
				if tp[s] > 0 {
					sp = tp[testbed.RTS] / tp[s]
				}
				row = append(row, sp)
			}
		}
		fmt.Fprintf(g.w, "%-12s %9.2fx %15.2fx %9.2fx %15.2fx\n", row...)
	}
	fmt.Fprintln(g.w)
	return nil
}

// sweepNodeCounts is the Fig. 4/5 sweep: four steps up to maxNodes, from 2.
func sweepNodeCounts(maxNodes int) []int {
	var out []int
	step := max(maxNodes/4, 1)
	for n := step; n <= maxNodes; n += step {
		if n >= 2 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{2}
	}
	return out
}

// metricsTable renders one cell's outcome breakdown: commits with the
// operations' exact sojourn p50/p99, the per-cause abort counts, and each
// outcome's mean attempt time, so time lost per abort cause is visible next
// to its frequency; and, for a traced cell, the oracle's verdict.
func metricsTable(r testbed.Report) string {
	var b strings.Builder
	m := r.Metrics
	fmt.Fprintf(&b, "%-22s %8d   %.1f tx/s   [mean=%v]   sojourn p50 %v p99 %v\n", "commit", m.Commits,
		r.Throughput(), m.Latency[stm.LatencyCommitKey].Mean(), r.Sojourn.Quantile(0.50), r.Sojourn.Quantile(0.99))
	for _, c := range stm.AbortCauses() {
		l := m.Latency[c.String()]
		if m.Aborts[c] == 0 && l.Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-22s %8d   [mean=%v]\n", "abort:"+c.String(), m.Aborts[c], l.Mean())
	}
	fmt.Fprintf(&b, "%-22s %8d   pushes %d  retrieves %d\n",
		"enqueues", m.Enqueues, m.Pushes, m.Retrieves)
	fmt.Fprintf(&b, "%-22s %8d   remote-copies %d  stale-hops %d  hops/copy %.2f\n",
		"retrieve-waves", m.RetrieveWaves, m.RemoteCopies, m.StaleHops, float64(m.StaleHops)/float64(max(m.RemoteCopies, 1)))
	fmt.Fprintf(&b, "%-22s %8d   nested-own %d  nested-parent %d (rate %.1f%%)\n",
		"nested-commits", m.NestedCommits, m.NestedOwn, m.NestedParent, 100*m.NestedAbortRate())
	fmt.Fprintf(&b, "%-22s %8d   rounds %d  msgs/commit %.1f  rounds/commit %.1f\n",
		"commit-msgs", m.CommitMsgs, m.CommitRounds, m.MsgsPerCommit(), m.RoundsPerCommit())
	if r.TraceEvents > 0 {
		verdict := "ok"
		if r.ProtocolErr != nil {
			verdict = r.ProtocolErr.Error()
		}
		fmt.Fprintf(&b, "%-22s %8d   dropped %d  protocol-check %s\n",
			"trace-events", r.TraceEvents, r.TraceDropped, verdict)
	}
	return b.String()
}
