package dstm

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, plus ablations for the design choices DESIGN.md calls out. Each
// benchmark iteration runs a complete (scaled-down) experiment cell and
// reports domain metrics via b.ReportMetric:
//
//	tx/sec       cluster-wide committed top-level transactions per second
//	abort%       top-level aborts / (commits + aborts)
//	nestedPar%   Table I's metric: parent-caused nested aborts / all nested aborts
//	speedup-*    Fig. 6's throughput ratios
//
// Full-scale regeneration (all six benchmarks, larger sweeps) is
// cmd/rtsbench's job; these benches keep each cell small enough for
// `go test -bench=.` to finish in minutes on one machine.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dstm/internal/harness"
	"dstm/internal/testbed"
	"dstm/internal/workload"
)

// benchCfg is the shared scaled-down experiment cell.
func benchCfg() harness.Config {
	return harness.Config{
		Options: testbed.Options{
			Nodes:          6,
			WorkersPerNode: 8,
			Duration:       120 * time.Millisecond,
			CLThreshold:    3,
			Seed:           1,
		},
		ObjectsPerNode: 6,
		DelayScale:     0.004, // 1–50 ms → 4–200 µs
	}
}

// contentionCfg is benchCfg pointed at one (benchmark, scheduler, read
// ratio) cell — the combination every table, figure, and ablation varies.
func contentionCfg(bench harness.BenchmarkKind, s harness.Scheduler, readRatio float64) harness.Config {
	cfg := benchCfg()
	cfg.Benchmark = bench
	cfg.Scheduler = s
	cfg.ReadRatio = readRatio
	return cfg
}

// highContention is the write-heavy mix (10% reads) the ablations use.
func highContention(bench harness.BenchmarkKind, s harness.Scheduler) harness.Config {
	return contentionCfg(bench, s, harness.High.ReadRatio())
}

func reportCell(b *testing.B, res harness.Result) {
	b.Helper()
	if res.CheckErr != nil {
		b.Fatalf("invariant violated: %v", res.CheckErr)
	}
	b.ReportMetric(res.Throughput(), "tx/sec")
	total := float64(res.Metrics.Commits + res.Metrics.TotalAborts())
	if total > 0 {
		b.ReportMetric(100*float64(res.Metrics.TotalAborts())/total, "abort%")
	}
}

func runCell(b *testing.B, cfg harness.Config) harness.Result {
	b.Helper()
	res, err := harness.Run(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// ---------------------------------------------------------------------------
// Table I — abort rate of nested transactions (RTS vs TFA, low & high).

func BenchmarkTable1(b *testing.B) {
	for _, bench := range harness.Benchmarks {
		for _, cont := range []harness.Contention{harness.Low, harness.High} {
			for _, s := range []harness.Scheduler{harness.SchedRTS, harness.SchedTFA} {
				name := fmt.Sprintf("%s/%s/%s", harness.BenchmarkLabel(bench), cont, s)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						res := runCell(b, contentionCfg(bench, s, cont.ReadRatio()))
						reportCell(b, res)
						b.ReportMetric(100*res.NestedAbortRate(), "nestedPar%")
					}
				})
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 4 and 5 — throughput across node counts for the three
// schedulers, at low (Fig. 4) and high (Fig. 5) contention. One benchmark
// function per sub-figure.

func figBench(b *testing.B, bench harness.BenchmarkKind, cont harness.Contention) {
	b.Helper()
	for _, n := range []int{4, 8, 12} {
		for _, s := range harness.Schedulers {
			b.Run(fmt.Sprintf("nodes=%d/%s", n, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := contentionCfg(bench, s, cont.ReadRatio())
					cfg.Nodes = n
					reportCell(b, runCell(b, cfg))
				}
			})
		}
	}
}

func BenchmarkFig4a_Vacation_Low(b *testing.B) { figBench(b, harness.BenchVacation, harness.Low) }
func BenchmarkFig4b_Bank_Low(b *testing.B)     { figBench(b, harness.BenchBank, harness.Low) }
func BenchmarkFig4c_LinkedList_Low(b *testing.B) {
	figBench(b, harness.BenchList, harness.Low)
}
func BenchmarkFig4d_RBTree_Low(b *testing.B) { figBench(b, harness.BenchRBTree, harness.Low) }
func BenchmarkFig4e_BST_Low(b *testing.B)    { figBench(b, harness.BenchBST, harness.Low) }
func BenchmarkFig4f_DHT_Low(b *testing.B)    { figBench(b, harness.BenchDHT, harness.Low) }

func BenchmarkFig5a_Vacation_High(b *testing.B) { figBench(b, harness.BenchVacation, harness.High) }
func BenchmarkFig5b_Bank_High(b *testing.B)     { figBench(b, harness.BenchBank, harness.High) }
func BenchmarkFig5c_LinkedList_High(b *testing.B) {
	figBench(b, harness.BenchList, harness.High)
}
func BenchmarkFig5d_RBTree_High(b *testing.B) { figBench(b, harness.BenchRBTree, harness.High) }
func BenchmarkFig5e_BST_High(b *testing.B)    { figBench(b, harness.BenchBST, harness.High) }
func BenchmarkFig5f_DHT_High(b *testing.B)    { figBench(b, harness.BenchDHT, harness.High) }

// ---------------------------------------------------------------------------
// Figure 6 — summary of throughput speedup (RTS over TFA and TFA+Backoff).

func BenchmarkFig6_Speedup(b *testing.B) {
	for _, bench := range harness.Benchmarks {
		b.Run(harness.BenchmarkLabel(bench), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := harness.RunSpeedupSummary(context.Background(), benchCfg(),
					[]harness.BenchmarkKind{bench})
				if err != nil {
					b.Fatal(err)
				}
				r := rows[0]
				b.ReportMetric(r.TFALow, "speedup-TFA-low")
				b.ReportMetric(r.BackoffLow, "speedup-Backoff-low")
				b.ReportMetric(r.TFAHigh, "speedup-TFA-high")
				b.ReportMetric(r.BackoffHigh, "speedup-Backoff-high")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Key skew — throughput under the workload package's key distributions.

// BenchmarkSkew_KeyDistributions runs the closed-loop high-contention bank
// cell under each key distribution: uniform, Zipfian (theta 0.9) and the
// rotating hot-key storm. The spread between RTS and TFA widens as the
// skew concentrates conflicts onto fewer objects.
func BenchmarkSkew_KeyDistributions(b *testing.B) {
	samplers := []struct {
		name string
		mk   func() workload.KeySampler
	}{
		{"uniform", func() workload.KeySampler { return workload.NewUniform() }},
		{"zipf-0.9", func() workload.KeySampler { return workload.NewZipf(0.9) }},
		{"storm", func() workload.KeySampler { return workload.NewHotKeyStorm(2, 0.9, 64) }},
	}
	for _, sk := range samplers {
		for _, s := range []harness.Scheduler{harness.SchedRTS, harness.SchedTFA} {
			b.Run(fmt.Sprintf("%s/%s", sk.name, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := highContention(harness.BenchBank, s)
					cfg.KeySampler = sk.mk()
					reportCell(b, runCell(b, cfg))
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations.

// BenchmarkAblation_CLThreshold sweeps RTS's contention-level threshold
// (paper §IV-A: "at a certain point of the CL's threshold, we observe a
// peak point of transactional throughput").
func BenchmarkAblation_CLThreshold(b *testing.B) {
	for _, thr := range []int{1, 2, 3, 5, 8, 16} {
		b.Run(fmt.Sprintf("threshold=%d", thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// High contention exposes the peak.
				cfg := highContention(harness.BenchBank, harness.SchedRTS)
				cfg.CLThreshold = thr
				reportCell(b, runCell(b, cfg))
			}
		})
	}
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := highContention(harness.BenchBank, harness.SchedRTS)
			cfg.AdaptiveCL = true
			reportCell(b, runCell(b, cfg))
		}
	})
}

// BenchmarkAblation_QueuePolicy compares RTS's gated enqueueing against
// the two extremes: abort-everything (TFA) and enqueue-everything (RTS
// with an effectively unbounded CL threshold) — the trade-off §VI argues.
func BenchmarkAblation_QueuePolicy(b *testing.B) {
	run := func(b *testing.B, s harness.Scheduler, thr int) {
		for i := 0; i < b.N; i++ {
			cfg := highContention(harness.BenchBank, s)
			if thr > 0 {
				cfg.CLThreshold = thr
			}
			reportCell(b, runCell(b, cfg))
		}
	}
	b.Run("abort-everything", func(b *testing.B) { run(b, harness.SchedTFA, 0) })
	b.Run("rts-gated", func(b *testing.B) { run(b, harness.SchedRTS, 3) })
	b.Run("enqueue-everything", func(b *testing.B) { run(b, harness.SchedRTS, 1<<20) })
}

// BenchmarkAblation_Nesting compares closed nesting (the paper's model)
// against flat nesting, under RTS and TFA: with flat nesting every inner
// conflict restarts the whole parent, re-fetching all objects — the
// concurrency loss §I motivates closed nesting with.
func BenchmarkAblation_Nesting(b *testing.B) {
	for _, s := range []harness.Scheduler{harness.SchedRTS, harness.SchedTFA} {
		for _, flat := range []bool{false, true} {
			mode := "closed"
			if flat {
				mode = "flat"
			}
			b.Run(fmt.Sprintf("%s/%s", s, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfg := highContention(harness.BenchBank, s)
					cfg.FlatNesting = flat
					reportCell(b, runCell(b, cfg))
				}
			})
		}
	}
}

// BenchmarkAblation_BackoffSource compares the stats-table-driven backoff
// of TFA+Backoff with client-side stalls disabled (plain TFA), isolating
// what the backoff itself contributes.
func BenchmarkAblation_BackoffSource(b *testing.B) {
	for _, s := range []harness.Scheduler{harness.SchedTFA, harness.SchedBackoff} {
		b.Run(string(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reportCell(b, runCell(b, highContention(harness.BenchVacation, s)))
			}
		})
	}
}
