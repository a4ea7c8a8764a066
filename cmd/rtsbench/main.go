// Command rtsbench regenerates the paper's tables and figures on a
// simulated cluster.
//
// Usage:
//
//	rtsbench -experiment table1                 # Table I
//	rtsbench -experiment fig4                   # Fig. 4 (low contention)
//	rtsbench -experiment fig5                   # Fig. 5 (high contention)
//	rtsbench -experiment speedup                # Fig. 6 summary
//	rtsbench -experiment all
//
// Flags tune scale: -nodes, -maxnodes, -duration, -workers, -objects,
// -delayscale, -clthreshold, -adaptive, -bench. Fault injection (lossy
// links, see DESIGN.md "Fault model"): -drop, -duplicate, -reorder,
// -locklease.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dstm/internal/harness"
	"dstm/internal/testbed"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table1 | fig4 | fig5 | speedup | cell | all")
		nodes      = flag.Int("nodes", 8, "node count for table1/speedup")
		maxNodes   = flag.Int("maxnodes", 16, "largest node count in fig4/fig5 sweeps")
		duration   = flag.Duration("duration", 250*time.Millisecond, "measurement window per cell")
		workers    = flag.Int("workers", 8, "concurrent transactions per node")
		objects    = flag.Int("objects", 8, "shared objects per node (paper: 5-10)")
		delayScale = flag.Float64("delayscale", 0.01, "scale applied to the 1-50ms link band")
		threshold  = flag.Int("clthreshold", 3, "RTS contention-level threshold")
		adaptive   = flag.Bool("adaptive", false, "adapt the CL threshold at runtime")
		flat       = flag.Bool("flat", false, "use flat nesting instead of closed nesting")
		benchList  = flag.String("bench", "", "comma-separated benchmark subset (vacation,bank,ll,rbtree,bst,dht)")
		seed       = flag.Int64("seed", 1, "workload seed")
		drop       = flag.Float64("drop", 0, "message drop probability (fault injection)")
		duplicate  = flag.Float64("duplicate", 0, "message duplication probability (fault injection)")
		reorder    = flag.Float64("reorder", 0, "message reorder probability (fault injection)")
		lockLease  = flag.Duration("locklease", 0, "force-release commit locks held this long (0 = off)")
		traceOn    = flag.Bool("trace", false, "record protocol events and run the trace checker on every cell")
		traceFile  = flag.String("tracefile", "", "write the merged trace as JSONL (implies -trace; multi-cell experiments overwrite per cell)")
		traceCap   = flag.Int("tracecap", 0, "per-node trace ring capacity (0 = default)")
		scheduler  = flag.String("scheduler", "RTS", "scheduler for -experiment cell (RTS | TFA | TFA+Backoff)")
		readRatio  = flag.Float64("readratio", 0.9, "read fraction for -experiment cell")
	)
	flag.Parse()

	base := harness.Config{
		Options: testbed.Options{
			Nodes:          *nodes,
			WorkersPerNode: *workers,
			Duration:       *duration,
			CLThreshold:    *threshold,
			AdaptiveCL:     *adaptive,
			FlatNesting:    *flat,
			Seed:           *seed,
			Drop:           *drop,
			Duplicate:      *duplicate,
			Reorder:        *reorder,
			MaxExtraDelay:  time.Millisecond,
			LockLease:      *lockLease,
			Trace:          *traceOn || *traceFile != "",
			TraceCap:       *traceCap,
			TracePath:      *traceFile,
		},
		ObjectsPerNode: *objects,
		DelayScale:     *delayScale,
	}
	benches := parseBenches(*benchList)
	ctx := context.Background()

	var err error
	switch *experiment {
	case "cell":
		err = runCell(ctx, base, benches, testbed.Scheduler(*scheduler), *readRatio)
	case "table1":
		err = runTable1(ctx, base, benches)
	case "fig4":
		err = runFigure(ctx, base, benches, harness.Low, *maxNodes)
	case "fig5":
		err = runFigure(ctx, base, benches, harness.High, *maxNodes)
	case "speedup":
		err = runSpeedup(ctx, base, benches)
	case "all":
		if err = runTable1(ctx, base, benches); err == nil {
			if err = runFigure(ctx, base, benches, harness.Low, *maxNodes); err == nil {
				if err = runFigure(ctx, base, benches, harness.High, *maxNodes); err == nil {
					err = runSpeedup(ctx, base, benches)
				}
			}
		}
	default:
		err = fmt.Errorf("unknown experiment %q", *experiment)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtsbench:", err)
		os.Exit(1)
	}
}

// runCell runs a single experiment cell per benchmark and prints the full
// outcome breakdown (per-cause abort counts with mean attempt times, and —
// with -trace — the protocol-checker verdict). The one-cell mode is the
// natural home of -tracefile: the JSONL on disk is exactly that cell's run.
func runCell(ctx context.Context, base harness.Config, benches []harness.BenchmarkKind,
	sched testbed.Scheduler, readRatio float64) error {
	for _, b := range benches {
		cfg := base
		cfg.Benchmark = b
		cfg.Scheduler = sched
		cfg.ReadRatio = readRatio
		rep, err := harness.Run(ctx, cfg)
		if rep.Elapsed > 0 {
			// Drive ran: show the breakdown even when the verdict failed.
			fmt.Printf("%s / %s (read %.0f%%)\n", harness.BenchmarkLabel(b), sched, 100*readRatio)
			fmt.Println(harness.MetricsTable(rep))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func parseBenches(s string) []harness.BenchmarkKind {
	if s == "" {
		return harness.Benchmarks
	}
	var out []harness.BenchmarkKind
	for _, part := range strings.Split(s, ",") {
		out = append(out, harness.BenchmarkKind(strings.TrimSpace(part)))
	}
	return out
}

func runTable1(ctx context.Context, base harness.Config, benches []harness.BenchmarkKind) error {
	tbl, err := harness.RunTable1(ctx, base, benches)
	if err != nil {
		return err
	}
	fmt.Println(tbl.Format())
	return nil
}

func sweepNodeCounts(maxNodes int) []int {
	var out []int
	step := maxNodes / 4
	if step < 1 {
		step = 1
	}
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

func runFigure(ctx context.Context, base harness.Config, benches []harness.BenchmarkKind,
	cont harness.Contention, maxNodes int) error {
	counts := sweepNodeCounts(maxNodes)
	for _, b := range benches {
		sw, err := harness.RunThroughputSweep(ctx, base, b, cont, counts)
		if err != nil {
			return err
		}
		fmt.Println(sw.Format())
	}
	return nil
}

func runSpeedup(ctx context.Context, base harness.Config, benches []harness.BenchmarkKind) error {
	rows, err := harness.RunSpeedupSummary(ctx, base, benches)
	if err != nil {
		return err
	}
	fmt.Println(harness.FormatSpeedup(rows))
	return nil
}
