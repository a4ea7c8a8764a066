package harness

import (
	"context"
	"testing"
	"time"

	"dstm/internal/testbed"
	"dstm/internal/workload"
)

// TestSchedulerDifferentiationHotKeyStorm pins the workload regime the
// paper's contribution targets — a write-heavy hot-key storm, where
// nearly every transaction collides on the two rotating hot objects —
// and asserts that RTS actually differentiates from plain TFA there:
// at least as many committed transactions (within a 15% tolerance band)
// and strictly fewer aborts (these cells measure 0.42–0.70 of TFA's).
//
// Counts are aggregated over fifteen seeds so a single unlucky interleaving
// cannot flip the verdict — five left the commit ratio spread over
// 0.73–1.17 from run to run, fifteen keep it within 0.90–1.23, busy host or
// idle — and the two schedulers alternate seed by seed so a change in host
// load during the test lands on both halves of the comparison.
func TestSchedulerDifferentiationHotKeyStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed aggregate cell")
	}
	totals := make(map[testbed.Scheduler]struct{ commits, aborts uint64 })
	for seed := int64(1); seed <= 15; seed++ {
		for _, s := range []testbed.Scheduler{testbed.RTS, testbed.TFA} {
			cfg := Config{
				Options: testbed.Options{
					Nodes:          4,
					WorkersPerNode: 3,
					Duration:       150 * time.Millisecond,
					CLThreshold:    3,
					Scheduler:      s,
					ReadRatio:      0.1, // high contention: 90% writes
					Seed:           seed,
					// Two hot keys take 90% of the draws, rotating every 64
					// draws so the storm sweeps across owners.
					KeyPicker: workload.NewHotKeyStorm(2, 0.9, 64).Sample,
				},
				ObjectsPerNode: 4,
				DelayScale:     0.002,
				Benchmark:      BenchBank,
			}
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum := totals[s]
			sum.commits += res.Metrics.Commits
			sum.aborts += res.Metrics.TotalAborts()
			totals[s] = sum
		}
	}
	for _, s := range []testbed.Scheduler{testbed.RTS, testbed.TFA} {
		t.Logf("%-12s commits=%d aborts=%d", s, totals[s].commits, totals[s].aborts)
	}

	rts, tfa := totals[testbed.RTS], totals[testbed.TFA]
	if rts.commits == 0 || tfa.commits == 0 {
		t.Fatalf("degenerate cell: rts=%+v tfa=%+v", rts, tfa)
	}
	// Completed work: RTS >= TFA, 15% tolerance band.
	if float64(rts.commits) < 0.85*float64(tfa.commits) {
		t.Errorf("RTS committed %d < 0.85 x TFA's %d under hot-key storm",
			rts.commits, tfa.commits)
	}
	// Wasted work: enqueueing at the hot objects must abort strictly less
	// than abort-and-retry.
	if rts.aborts >= tfa.aborts {
		t.Errorf("RTS aborts %d not strictly fewer than TFA aborts %d under hot-key storm",
			rts.aborts, tfa.aborts)
	}
}
