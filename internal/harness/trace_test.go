package harness

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dstm/internal/stm"
	"dstm/internal/testbed"
	"dstm/internal/trace"
	"dstm/internal/trace/check"
)

// traceCfg is quickCfg with protocol tracing on: a ring large enough that
// nothing wraps (dropped events downgrade the checker), and a slightly
// longer window so every protocol path — enqueue, park, push, hand-off,
// forward — actually fires.
func traceCfg() Config {
	cfg := quickCfg()
	cfg.Trace = true
	cfg.TraceCap = 1 << 19
	cfg.Duration = 120 * time.Millisecond
	cfg.WorkersPerNode = 4
	cfg.ReadRatio = 0.5
	return cfg
}

// requireCleanTrace asserts the run recorded a complete trace, so the
// oracle verdict Run already failed on was the full check, not the
// truncated one.
func requireCleanTrace(t *testing.T, res testbed.Report) {
	t.Helper()
	if res.TraceEvents == 0 {
		t.Fatal("tracing enabled but no events recorded")
	}
	if res.TraceDropped != 0 {
		t.Fatalf("ring wrapped (%d events dropped) — raise TraceCap so the full check runs", res.TraceDropped)
	}
	t.Logf("protocol check ok over %d events", res.TraceEvents)
}

// TestProtocolTraceCleanAllBenchmarks replays every benchmark's merged
// event trace through the protocol oracle on a reliable network: all six
// must satisfy lock exclusion, forwarding monotonicity, the hand-off head
// rule, park closure and reply correlation.
func TestProtocolTraceCleanAllBenchmarks(t *testing.T) {
	for _, b := range Benchmarks {
		b := b
		t.Run(string(b), func(t *testing.T) {
			t.Parallel()
			cfg := traceCfg()
			cfg.Benchmark = b
			cfg.Scheduler = testbed.RTS
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Commits == 0 {
				t.Fatal("no commits")
			}
			requireCleanTrace(t, res)
		})
	}
}

// TestProtocolTraceLossyAllBenchmarks repeats the oracle check under the
// chaos fault model (15% drop plus duplication and reordering, with the
// lock-lease reaper armed): message loss may change WHICH protocol events
// occur — timeouts instead of pushes, lease expiries instead of unlocks —
// but never in an order the invariants forbid.
func TestProtocolTraceLossyAllBenchmarks(t *testing.T) {
	for _, b := range Benchmarks {
		b := b
		t.Run(string(b), func(t *testing.T) {
			t.Parallel()
			cfg := traceCfg()
			cfg.Benchmark = b
			cfg.Scheduler = testbed.RTS
			cfg.Duration = 300 * time.Millisecond
			cfg.Drop = 0.15
			cfg.Duplicate = 0.05
			cfg.Reorder = 0.05
			cfg.MaxExtraDelay = time.Millisecond
			cfg.LockLease = 2 * time.Second
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Commits == 0 {
				t.Fatal("no commits under 15% loss")
			}
			requireCleanTrace(t, res)
		})
	}
}

// TestProtocolTraceAllSchedulers runs the oracle under each scheduler: TFA
// and TFA+Backoff never enqueue, so their traces exercise the lock and
// forwarding invariants without the queue model.
func TestProtocolTraceAllSchedulers(t *testing.T) {
	for _, s := range testbed.Schedulers {
		s := s
		t.Run(string(s), func(t *testing.T) {
			t.Parallel()
			cfg := traceCfg()
			cfg.Benchmark = BenchBank
			cfg.Scheduler = s
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireCleanTrace(t, res)
		})
	}
}

// TestProtocolTraceExport round-trips the exported JSONL: reading the file
// back must yield the same number of events and the same (clean) verdict
// the in-process check produced.
func TestProtocolTraceExport(t *testing.T) {
	cfg := traceCfg()
	cfg.Benchmark = BenchBank
	cfg.Scheduler = testbed.RTS
	cfg.TracePath = filepath.Join(t.TempDir(), "trace.jsonl")
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireCleanTrace(t, res)

	f, err := os.Open(cfg.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != res.TraceEvents {
		t.Fatalf("file has %d events, run reported %d", len(events), res.TraceEvents)
	}
	if err := check.Run(events, check.Options{}).Err(); err != nil {
		t.Fatalf("re-checking the exported trace failed: %v", err)
	}
}

// TestProtocolTraceTruncated forces ring wrap with a tiny capacity: the
// run must report the drop and the checker must downgrade to the
// truncated-trace invariants instead of emitting false violations from the
// missing prefix.
func TestProtocolTraceTruncated(t *testing.T) {
	cfg := traceCfg()
	cfg.Benchmark = BenchBank
	cfg.Scheduler = testbed.RTS
	cfg.TraceCap = 64
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceDropped == 0 {
		t.Fatal("64-event rings did not wrap — truncation path untested")
	}
	if res.ProtocolErr != nil {
		t.Fatalf("truncated check must not report stateful violations: %v", res.ProtocolErr)
	}
}

// TestMetricsTableRendersBreakdown pins the cell's output surface: the
// per-cause abort breakdown with mean attempt times, and the trace verdict
// line when tracing is on.
func TestMetricsTableRendersBreakdown(t *testing.T) {
	cfg := traceCfg()
	cfg.Benchmark = BenchBank
	cfg.Scheduler = testbed.RTS
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := MetricsTable(res)
	if !strings.Contains(out, "commit") || !strings.Contains(out, "tx/s") {
		t.Fatalf("no commit line:\n%s", out)
	}
	if !strings.Contains(out, "mean=") {
		t.Fatalf("no mean attempt time rendered:\n%s", out)
	}
	if !strings.Contains(out, "trace-events") || !strings.Contains(out, "protocol-check ok") {
		t.Fatalf("no trace verdict line:\n%s", out)
	}
	// Every abort cause that occurred must have its own labelled line.
	for c, n := range res.Metrics.Aborts {
		if n > 0 && !strings.Contains(out, "abort:"+c.String()) {
			t.Fatalf("cause %s (count %d) missing from:\n%s", c, n, out)
		}
	}
	if res.Metrics.Latency[stm.LatencyCommitKey].Count() != res.Metrics.Commits {
		t.Fatalf("commit latency count %d != commits %d",
			res.Metrics.Latency[stm.LatencyCommitKey].Count(), res.Metrics.Commits)
	}
}
