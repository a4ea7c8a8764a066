// Command rtsbench regenerates the paper's tables and figures on a
// simulated cluster.
//
// Usage:
//
//	rtsbench -experiment table1                 # Table I
//	rtsbench -experiment fig4                   # Fig. 4 (low contention)
//	rtsbench -experiment fig5                   # Fig. 5 (high contention)
//	rtsbench -experiment speedup                # Fig. 6 summary
//	rtsbench -experiment stability              # open-loop queue-stability sweep
//	rtsbench -experiment all
//
// Flags tune scale: -nodes, -maxnodes, -duration, -workers, -objects,
// -delayscale, -clthreshold, -adaptive, -bench. Fault injection (lossy
// links, see DESIGN.md "Fault model"): -drop, -duplicate, -reorder,
// -locklease.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dstm/internal/cluster"
	"dstm/internal/harness"
	"dstm/internal/stm"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table1 | fig4 | fig5 | speedup | cell | stability | all")
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
		benchJSON  = flag.String("benchjson", "", "run the commit-pipeline benchmark and write its JSON report (throughput, msgs/commit, commit-latency p50/p99 per scheduler) to this file, then exit")

		stabilityJSON = flag.String("stabilityjson", "results/BENCH_stability.json", "output path for -experiment stability")
		rates         = flag.String("rates", "300,900", "comma-separated offered arrival rates (tx/s) for -experiment stability")
		arrivals      = flag.String("arrivals", "poisson,window", "comma-separated arrival processes for -experiment stability (constant|poisson|burst|window)")
		skews         = flag.String("skews", "uniform,zipf,storm", "comma-separated key distributions for -experiment stability (uniform|zipf|storm)")
		failDiverging = flag.Bool("faildiverging", false, "exit non-zero when any RTS stability cell reports a diverging queue")
	)
	flag.Parse()

	base := harness.Config{
		Nodes:          *nodes,
		WorkersPerNode: *workers,
		Duration:       *duration,
		ObjectsPerNode: *objects,
		DelayScale:     *delayScale,
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
	}
	if base.Drop > 0 || base.Duplicate > 0 || base.Reorder > 0 {
		// Lossy runs need retransmissions paced to the scaled link delays,
		// not the 2s default per-try timeout.
		base.CallRetry = cluster.RetryPolicy{
			PerTryTimeout: 30 * time.Millisecond,
			BaseBackoff:   2 * time.Millisecond,
			MaxBackoff:    20 * time.Millisecond,
		}
	}
	benches := parseBenches(*benchList)
	ctx := context.Background()

	if *benchJSON != "" {
		if err := runBenchJSON(ctx, base, benches, *readRatio, *benchJSON); err != nil {
			fmt.Fprintln(os.Stderr, "rtsbench:", err)
			os.Exit(1)
		}
		return
	}

	var err error
	switch *experiment {
	case "cell":
		err = runCell(ctx, base, benches, harness.Scheduler(*scheduler), *readRatio)
	case "stability":
		err = runStability(ctx, base, benches, *readRatio, *skews, *arrivals, *rates,
			*stabilityJSON, *failDiverging)
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
// outcome breakdown (per-cause abort counts with latency histograms, and —
// with -trace — the protocol-checker verdict). The one-cell mode is the
// natural home of -tracefile: the JSONL on disk is exactly that cell's run.
func runCell(ctx context.Context, base harness.Config, benches []harness.BenchmarkKind,
	sched harness.Scheduler, readRatio float64) error {
	for _, b := range benches {
		cfg := base
		cfg.Benchmark = b
		cfg.Scheduler = sched
		cfg.ReadRatio = readRatio
		res, err := harness.Run(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%s / %s (read %.0f%%)\n", harness.BenchmarkLabel(b), sched, 100*readRatio)
		fmt.Println(res.MetricsTable())
		if res.CheckErr != nil {
			return fmt.Errorf("%s invariant: %w", b, res.CheckErr)
		}
		if res.ProtocolErr != nil {
			return fmt.Errorf("%s protocol trace: %w", b, res.ProtocolErr)
		}
	}
	return nil
}

// benchJSONRow is one (scheduler, benchmark) cell of the commit-pipeline
// benchmark report.
type benchJSONRow struct {
	Scheduler       string  `json:"scheduler"`
	Benchmark       string  `json:"benchmark"`
	Commits         uint64  `json:"commits"`
	Aborts          uint64  `json:"aborts"`
	ThroughputTPS   float64 `json:"throughput_tps"`
	CommitMsgs      uint64  `json:"commit_msgs"`
	CommitRounds    uint64  `json:"commit_rounds"`
	MsgsPerCommit   float64 `json:"msgs_per_commit"`
	RoundsPerCommit float64 `json:"rounds_per_commit"`
	CommitP50Ns     int64   `json:"commit_latency_p50_ns"`
	CommitP99Ns     int64   `json:"commit_latency_p99_ns"`
}

// benchJSONDoc is the whole BENCH_commit.json document.
type benchJSONDoc struct {
	Experiment     string         `json:"experiment"`
	Nodes          int            `json:"nodes"`
	WorkersPerNode int            `json:"workers_per_node"`
	ObjectsPerNode int            `json:"objects_per_node"`
	DurationMs     int64          `json:"duration_ms"`
	ReadRatio      float64        `json:"read_ratio"`
	Seed           int64          `json:"seed"`
	Rows           []benchJSONRow `json:"rows"`
}

// runBenchJSON measures the owner-grouped commit pipeline: for every
// scheduler and benchmark it runs one cell and reports throughput, the
// msgs/commit and rounds/commit of the batch pipeline, and the commit
// latency tail, as machine-readable JSON (results/BENCH_commit.json under
// `make bench`).
func runBenchJSON(ctx context.Context, base harness.Config, benches []harness.BenchmarkKind,
	readRatio float64, path string) error {
	doc := benchJSONDoc{Experiment: "commit-pipeline", ReadRatio: readRatio, Seed: base.Seed}
	for _, sc := range harness.Schedulers {
		for _, b := range benches {
			cfg := base
			cfg.Benchmark = b
			cfg.Scheduler = sc
			cfg.ReadRatio = readRatio
			res, err := harness.Run(ctx, cfg)
			if err != nil {
				return err
			}
			if res.CheckErr != nil {
				return fmt.Errorf("%s invariant: %w", b, res.CheckErr)
			}
			m := res.Metrics
			lat := m.Latency[stm.LatencyCommitKey]
			doc.Rows = append(doc.Rows, benchJSONRow{
				Scheduler:       string(sc),
				Benchmark:       string(b),
				Commits:         m.Commits,
				Aborts:          m.TotalAborts(),
				ThroughputTPS:   res.Throughput(),
				CommitMsgs:      m.CommitMsgs,
				CommitRounds:    m.CommitRounds,
				MsgsPerCommit:   m.MsgsPerCommit(),
				RoundsPerCommit: m.RoundsPerCommit(),
				CommitP50Ns:     int64(lat.Quantile(0.50)),
				CommitP99Ns:     int64(lat.Quantile(0.99)),
			})
			// The resolved defaults are identical across cells; record once.
			doc.Nodes = res.Config.Nodes
			doc.WorkersPerNode = res.Config.WorkersPerNode
			doc.ObjectsPerNode = res.Config.ObjectsPerNode
			doc.DurationMs = res.Config.Duration.Milliseconds()
			fmt.Printf("%-12s %-10s %8.1f tx/s   msgs/commit %5.1f   p99 %v\n",
				sc, b, res.Throughput(), m.MsgsPerCommit(), lat.Quantile(0.99))
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(doc)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("bench json: %w", werr)
	}
	fmt.Printf("wrote %s\n", path)
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
