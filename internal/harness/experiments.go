package harness

import (
	"context"
	"fmt"
	"strings"

	"dstm/internal/stm"
	"dstm/internal/testbed"
)

// Contention names the paper's two workload mixes.
type Contention string

// Paper §IV-A: low contention = 90 % read transactions, high = 10 %.
const (
	Low  Contention = "Low"
	High Contention = "High"
)

// ReadRatio returns the read fraction for a contention level.
func (c Contention) ReadRatio() float64 {
	if c == Low {
		return 0.9
	}
	return 0.1
}

// BenchmarkLabel renders the paper's display name for a kind.
func BenchmarkLabel(k BenchmarkKind) string {
	switch k {
	case BenchVacation:
		return "Vacation"
	case BenchBank:
		return "Bank"
	case BenchList:
		return "Linked List"
	case BenchRBTree:
		return "RB Tree"
	case BenchBST:
		return "BST"
	case BenchDHT:
		return "DHT"
	default:
		return string(k)
	}
}

// MetricsTable renders one cell's outcome breakdown: commits with the
// operations' exact sojourn p50/p99, the per-cause abort counts, and each
// outcome's mean attempt time, so time lost per abort cause is visible next
// to its frequency; and, for a traced cell, the oracle's verdict.
func MetricsTable(r testbed.Report) string {
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
	fmt.Fprintf(&b, "%-22s %8d   pushes %d  retrieves %d  lease-expiries %d\n",
		"enqueues", m.Enqueues, m.Pushes, m.Retrieves, m.LeaseExpiries)
	fmt.Fprintf(&b, "%-22s %8d   remote-copies %d  stale-hops %d  hops/copy %.2f\n",
		"retrieve-waves", m.RetrieveWaves, m.RemoteCopies, m.StaleHops, float64(m.StaleHops)/float64(max(m.RemoteCopies, 1)))
	fmt.Fprintf(&b, "%-22s %8d   nested-own %d  nested-parent %d (rate %.1f%%)\n",
		"nested-commits", m.NestedCommits, m.NestedOwn, m.NestedParent, 100*m.NestedAbortRate())
	fmt.Fprintf(&b, "%-22s %8d   rounds %d  msgs/commit %.1f  rounds/commit %.1f\n",
		"commit-msgs", m.CommitMsgs, m.CommitRounds, m.MsgsPerCommit(), m.RoundsPerCommit())
	if r.TraceEvents > 0 {
		fmt.Fprintf(&b, "%-22s %8d   dropped %d  protocol-check %s\n",
			"trace-events", r.TraceEvents, r.TraceDropped, errLabel(r.ProtocolErr))
	}
	return b.String()
}

func errLabel(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// ---------------------------------------------------------------------------
// Table I — abort rate of nested transactions.

// Table1Row is one benchmark's row: the fraction of nested-transaction
// aborts caused by a parent abort, for RTS and TFA at both contention
// levels.
type Table1Row struct {
	Benchmark                        BenchmarkKind
	LowRTS, LowTFA, HighRTS, HighTFA float64
}

// Table1 is the full table.
type Table1 struct {
	Rows []Table1Row
}

// RunTable1 reproduces Table I: for each benchmark and contention level it
// measures the nested abort rate under RTS and under plain TFA.
func RunTable1(ctx context.Context, base Config, benches []BenchmarkKind) (Table1, error) {
	if len(benches) == 0 {
		benches = Benchmarks
	}
	var out Table1
	for _, b := range benches {
		row := Table1Row{Benchmark: b}
		for _, cont := range []Contention{Low, High} {
			for _, s := range []testbed.Scheduler{testbed.RTS, testbed.TFA} {
				cfg := base
				cfg.Benchmark = b
				cfg.Scheduler = s
				cfg.ReadRatio = cont.ReadRatio()
				res, err := Run(ctx, cfg)
				if err != nil {
					return Table1{}, err
				}
				rate := res.NestedAbortRate()
				switch {
				case cont == Low && s == testbed.RTS:
					row.LowRTS = rate
				case cont == Low && s == testbed.TFA:
					row.LowTFA = rate
				case cont == High && s == testbed.RTS:
					row.HighRTS = rate
				default:
					row.HighTFA = rate
				}
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format renders the table in the paper's layout.
func (t Table1) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: Abort rate of nested transactions (parent-caused / total)\n")
	fmt.Fprintf(&b, "%-12s | %-17s | %-17s\n", "", "Low Contention", "High Contention")
	fmt.Fprintf(&b, "%-12s | %7s  %7s | %7s  %7s\n", "Benchmark", "RTS", "TFA", "RTS", "TFA")
	fmt.Fprintln(&b, strings.Repeat("-", 54))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s | %6.1f%%  %6.1f%% | %6.1f%%  %6.1f%%\n",
			BenchmarkLabel(r.Benchmark),
			100*r.LowRTS, 100*r.LowTFA, 100*r.HighRTS, 100*r.HighTFA)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figures 4 & 5 — throughput vs node count, per benchmark and scheduler.

// SweepPoint is one node count's throughput per scheduler.
type SweepPoint struct {
	Nodes      int
	Throughput map[testbed.Scheduler]float64
}

// Sweep is one benchmark's curve set (one sub-figure of Fig. 4/5).
type Sweep struct {
	Benchmark  BenchmarkKind
	Contention Contention
	Points     []SweepPoint
}

// RunThroughputSweep reproduces one sub-figure: throughput of the three
// schedulers across nodeCounts at the given contention.
func RunThroughputSweep(ctx context.Context, base Config, bench BenchmarkKind,
	cont Contention, nodeCounts []int) (Sweep, error) {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{10, 20, 30, 40, 50, 60, 70, 80}
	}
	sw := Sweep{Benchmark: bench, Contention: cont}
	for _, n := range nodeCounts {
		pt := SweepPoint{Nodes: n, Throughput: make(map[testbed.Scheduler]float64, len(testbed.Schedulers))}
		for _, s := range testbed.Schedulers {
			cfg := base
			cfg.Benchmark = bench
			cfg.Scheduler = s
			cfg.ReadRatio = cont.ReadRatio()
			cfg.Nodes = n
			res, err := Run(ctx, cfg)
			if err != nil {
				return Sweep{}, err
			}
			pt.Throughput[s] = res.Throughput()
		}
		sw.Points = append(sw.Points, pt)
	}
	return sw, nil
}

// Format renders the sweep as the figure's data series.
func (s Sweep) Format() string {
	var b strings.Builder
	fig := "Figure 4"
	if s.Contention == High {
		fig = "Figure 5"
	}
	fmt.Fprintf(&b, "%s: %s in %s Contention (throughput, txns/sec)\n",
		fig, BenchmarkLabel(s.Benchmark), s.Contention)
	fmt.Fprintf(&b, "%-6s", "Nodes")
	for _, sc := range testbed.Schedulers {
		fmt.Fprintf(&b, " %12s", sc)
	}
	fmt.Fprintln(&b)
	for _, pt := range s.Points {
		fmt.Fprintf(&b, "%-6d", pt.Nodes)
		for _, sc := range testbed.Schedulers {
			fmt.Fprintf(&b, " %12.1f", pt.Throughput[sc])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 6 — summary of throughput speedup.

// SpeedupRow is one benchmark's RTS speedup over each competitor at both
// contention levels (the four bars of Fig. 6).
type SpeedupRow struct {
	Benchmark                                BenchmarkKind
	TFALow, BackoffLow, TFAHigh, BackoffHigh float64
}

// RunSpeedupSummary reproduces Figure 6 at a fixed node count: the ratio of
// RTS's throughput to TFA's and to TFA+Backoff's, at low and high
// contention, for each benchmark.
func RunSpeedupSummary(ctx context.Context, base Config, benches []BenchmarkKind) ([]SpeedupRow, error) {
	if len(benches) == 0 {
		benches = Benchmarks
	}
	var rows []SpeedupRow
	for _, b := range benches {
		row := SpeedupRow{Benchmark: b}
		for _, cont := range []Contention{Low, High} {
			tp := make(map[testbed.Scheduler]float64, len(testbed.Schedulers))
			for _, s := range testbed.Schedulers {
				cfg := base
				cfg.Benchmark = b
				cfg.Scheduler = s
				cfg.ReadRatio = cont.ReadRatio()
				res, err := Run(ctx, cfg)
				if err != nil {
					return nil, err
				}
				tp[s] = res.Throughput()
			}
			rtsTP := tp[testbed.RTS]
			spTFA, spBK := 0.0, 0.0
			if tp[testbed.TFA] > 0 {
				spTFA = rtsTP / tp[testbed.TFA]
			}
			if tp[testbed.Backoff] > 0 {
				spBK = rtsTP / tp[testbed.Backoff]
			}
			if cont == Low {
				row.TFALow, row.BackoffLow = spTFA, spBK
			} else {
				row.TFAHigh, row.BackoffHigh = spTFA, spBK
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatSpeedup renders Figure 6's bar values.
func FormatSpeedup(rows []SpeedupRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 6: Summary of Throughput Speedup (RTS / competitor)")
	fmt.Fprintf(&b, "%-12s %10s %16s %10s %16s\n",
		"Benchmark", "TFA(Low)", "TFA+Backoff(Low)", "TFA(High)", "TFA+Backoff(High)")
	fmt.Fprintln(&b, strings.Repeat("-", 70))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %9.2fx %15.2fx %9.2fx %15.2fx\n",
			BenchmarkLabel(r.Benchmark), r.TFALow, r.BackoffLow, r.TFAHigh, r.BackoffHigh)
	}
	return b.String()
}
