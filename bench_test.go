package dstm

// Benchmarks for the design choices DESIGN.md calls out: key skew and
// ablations. Each iteration runs a complete (scaled-down) high-contention
// cell and reports domain metrics via b.ReportMetric:
//
//	tx/sec       cluster-wide committed top-level transactions per second
//	abort%       top-level aborts / (commits + aborts)
//
// The paper's tables and figures are cmd/rtsbench's job; these cells stay
// small enough for `go test -bench=.` to finish in minutes on one machine.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dstm/internal/apps"
	"dstm/internal/apps/bank"
	"dstm/internal/apps/vacation"
	"dstm/internal/testbed"
	"dstm/internal/workload"
)

// highContention is the shared scaled-down cell under scheduler s: six
// nodes on 4–200 µs links, eight workers each, the write-heavy mix (10 %
// reads).
func highContention(s testbed.Scheduler) testbed.Options {
	o := testbed.PaperCell(0.004, 1)
	o.Nodes, o.Scheduler, o.CLThreshold = 6, s, 3
	o.Duration, o.ReadRatio = 120*time.Millisecond, 0.1
	return o
}

// newBank and newVacation size the applications for six objects per node,
// as rtsbench's catalogue does.
func newBank() apps.Benchmark { return bank.New(bank.Options{AccountsPerNode: 6}) }
func newVacation() apps.Benchmark {
	return vacation.New(vacation.Options{ResourcesPerKindPerNode: 1, CustomersPerNode: 1})
}

// runCell runs one cell and reports its throughput and abort rate.
func runCell(b *testing.B, o testbed.Options, app apps.Benchmark) {
	b.Helper()
	res, err := testbed.Run(context.Background(), o, app)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Throughput(), "tx/sec")
	total := float64(res.Metrics.Commits + res.Metrics.TotalAborts())
	if total > 0 {
		b.ReportMetric(100*float64(res.Metrics.TotalAborts())/total, "abort%")
	}
}

// ---------------------------------------------------------------------------
// Key skew — throughput under the workload package's key distributions.

// BenchmarkSkew_KeyDistributions runs the closed-loop high-contention bank
// cell under each key distribution: uniform, Zipfian (theta 0.9) and the
// rotating hot-key storm. The spread between RTS and TFA widens as the
// skew concentrates conflicts onto fewer objects.
func BenchmarkSkew_KeyDistributions(b *testing.B) {
	pickers := []struct {
		name string
		mk   func() apps.KeyPicker
	}{
		{"uniform", func() apps.KeyPicker { return nil }},
		{"zipf-0.9", func() apps.KeyPicker { return workload.NewZipf(0.9).Sample }},
		{"storm", func() apps.KeyPicker { return workload.NewHotKeyStorm(2, 0.9, 64).Sample }},
	}
	for _, sk := range pickers {
		for _, s := range []testbed.Scheduler{testbed.RTS, testbed.TFA} {
			b.Run(fmt.Sprintf("%s/%s", sk.name, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					o := highContention(s)
					o.KeyPicker = sk.mk()
					runCell(b, o, newBank())
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
				o := highContention(testbed.RTS)
				o.CLThreshold = thr
				runCell(b, o, newBank())
			}
		})
	}
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := highContention(testbed.RTS)
			o.AdaptiveCL = true
			runCell(b, o, newBank())
		}
	})
}

// BenchmarkAblation_QueuePolicy compares RTS's gated enqueueing against
// the two extremes: abort-everything (TFA) and enqueue-everything (RTS
// with an effectively unbounded CL threshold) — the trade-off §VI argues.
func BenchmarkAblation_QueuePolicy(b *testing.B) {
	run := func(b *testing.B, s testbed.Scheduler, thr int) {
		for i := 0; i < b.N; i++ {
			o := highContention(s)
			if thr > 0 {
				o.CLThreshold = thr
			}
			runCell(b, o, newBank())
		}
	}
	b.Run("abort-everything", func(b *testing.B) { run(b, testbed.TFA, 0) })
	b.Run("rts-gated", func(b *testing.B) { run(b, testbed.RTS, 3) })
	b.Run("enqueue-everything", func(b *testing.B) { run(b, testbed.RTS, 1<<20) })
}

// BenchmarkAblation_Nesting compares closed nesting (the paper's model)
// against flat nesting, under RTS and TFA: with flat nesting every inner
// conflict restarts the whole parent, re-fetching all objects — the
// concurrency loss §I motivates closed nesting with.
func BenchmarkAblation_Nesting(b *testing.B) {
	for _, s := range []testbed.Scheduler{testbed.RTS, testbed.TFA} {
		for _, flat := range []bool{false, true} {
			mode := "closed"
			if flat {
				mode = "flat"
			}
			b.Run(fmt.Sprintf("%s/%s", s, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					o := highContention(s)
					o.FlatNesting = flat
					runCell(b, o, newBank())
				}
			})
		}
	}
}

// BenchmarkAblation_BackoffSource compares the stats-table-driven backoff
// of TFA+Backoff with client-side stalls disabled (plain TFA), isolating
// what the backoff itself contributes.
func BenchmarkAblation_BackoffSource(b *testing.B) {
	for _, s := range []testbed.Scheduler{testbed.TFA, testbed.Backoff} {
		b.Run(string(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runCell(b, highContention(s), newVacation())
			}
		})
	}
}
