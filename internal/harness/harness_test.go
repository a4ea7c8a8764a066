package harness

import (
	"context"
	"strings"
	"testing"
	"time"

	"dstm/internal/testbed"
)

// quickCfg is a small, fast experiment cell for tests.
func quickCfg() Config {
	return Config{
		Options: testbed.Options{
			Nodes:          3,
			WorkersPerNode: 2,
			Duration:       80 * time.Millisecond,
		},
		ObjectsPerNode: 4,
		DelayScale:     0.002, // 1–50ms → 2–100µs
	}
}

func TestRunDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Nodes <= 0 || cfg.WorkersPerNode <= 0 || cfg.Duration <= 0 ||
		cfg.ObjectsPerNode <= 0 || cfg.DelayScale <= 0 || cfg.CLThreshold <= 0 {
		t.Fatalf("defaults: %+v", cfg)
	}
}

func TestRunProducesCommits(t *testing.T) {
	for _, s := range testbed.Schedulers {
		s := s
		t.Run(string(s), func(t *testing.T) {
			cfg := quickCfg()
			cfg.Scheduler = s
			cfg.Benchmark = BenchBank
			cfg.ReadRatio = 0.5
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Commits == 0 {
				t.Fatal("no commits recorded")
			}
			if res.Throughput() <= 0 {
				t.Fatal("zero throughput")
			}
		})
	}
}

func TestRunAllBenchmarks(t *testing.T) {
	for _, b := range Benchmarks {
		b := b
		t.Run(string(b), func(t *testing.T) {
			cfg := quickCfg()
			cfg.Benchmark = b
			cfg.Scheduler = testbed.RTS
			cfg.ReadRatio = 0.5
			res, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Commits == 0 {
				t.Fatalf("no commits for %s", b)
			}
		})
	}
}

func TestUnknownBenchmarkAndScheduler(t *testing.T) {
	cfg := quickCfg()
	cfg.Benchmark = "nope"
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	cfg = quickCfg()
	cfg.Scheduler = "nope"
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestContentionReadRatios(t *testing.T) {
	if Low.ReadRatio() != 0.9 || High.ReadRatio() != 0.1 {
		t.Fatalf("read ratios: %v %v", Low.ReadRatio(), High.ReadRatio())
	}
}

func TestTable1SmallRun(t *testing.T) {
	cfg := quickCfg()
	tbl, err := RunTable1(context.Background(), cfg, []BenchmarkKind{BenchBank, BenchDHT})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		for _, v := range []float64{r.LowRTS, r.LowTFA, r.HighRTS, r.HighTFA} {
			if v < 0 || v > 1 {
				t.Fatalf("rate %v out of [0,1]: %+v", v, r)
			}
		}
	}
	out := tbl.Format()
	if !strings.Contains(out, "Bank") || !strings.Contains(out, "DHT") {
		t.Fatalf("format missing rows:\n%s", out)
	}
}

func TestThroughputSweepSmallRun(t *testing.T) {
	cfg := quickCfg()
	sw, err := RunThroughputSweep(context.Background(), cfg, BenchDHT, Low, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 2 {
		t.Fatalf("points = %d", len(sw.Points))
	}
	for _, pt := range sw.Points {
		for _, s := range testbed.Schedulers {
			if pt.Throughput[s] <= 0 {
				t.Fatalf("zero throughput for %s at %d nodes", s, pt.Nodes)
			}
		}
	}
	out := sw.Format()
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "DHT") {
		t.Fatalf("format:\n%s", out)
	}
	swHigh := Sweep{Benchmark: BenchBank, Contention: High}
	if !strings.Contains(swHigh.Format(), "Figure 5") {
		t.Fatal("high-contention sweep must label itself Figure 5")
	}
}

func TestSpeedupSummarySmallRun(t *testing.T) {
	cfg := quickCfg()
	rows, err := RunSpeedupSummary(context.Background(), cfg, []BenchmarkKind{BenchDHT})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	for _, v := range []float64{r.TFALow, r.BackoffLow, r.TFAHigh, r.BackoffHigh} {
		if v <= 0 {
			t.Fatalf("speedup %v not positive: %+v", v, r)
		}
	}
	out := FormatSpeedup(rows)
	if !strings.Contains(out, "Figure 6") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestBenchmarkLabels(t *testing.T) {
	want := map[BenchmarkKind]string{
		BenchVacation: "Vacation",
		BenchBank:     "Bank",
		BenchList:     "Linked List",
		BenchRBTree:   "RB Tree",
		BenchBST:      "BST",
		BenchDHT:      "DHT",
		"x":           "x",
	}
	for k, w := range want {
		if got := BenchmarkLabel(k); got != w {
			t.Fatalf("label(%s) = %q, want %q", k, got, w)
		}
	}
}

func TestRunWithFaultInjection(t *testing.T) {
	cfg := quickCfg()
	cfg.Benchmark = BenchBank
	cfg.ReadRatio = 0.5
	cfg.Duration = 400 * time.Millisecond
	cfg.Drop = 0.1
	cfg.Duplicate = 0.05
	cfg.Reorder = 0.05
	cfg.MaxExtraDelay = time.Millisecond
	cfg.LockLease = 5 * time.Second
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Commits == 0 {
		t.Fatal("no commits under 10% message loss")
	}
}
