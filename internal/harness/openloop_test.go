package harness

import (
	"context"
	"testing"
	"time"

	"dstm/internal/testbed"
	"dstm/internal/workload"
)

// quickOpenCfg is a small open-loop cell for tests: a light constant rate
// any scheduler absorbs easily.
func quickOpenCfg() Config {
	cfg := quickCfg()
	cfg.Benchmark = BenchBank
	cfg.Scheduler = testbed.RTS
	cfg.ReadRatio = 0.5
	cfg.Seed = 11
	cfg.Arrival = workload.NewConstant(400)
	return cfg
}

func TestOpenLoopStableCell(t *testing.T) {
	res, err := Run(context.Background(), quickOpenCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 {
		t.Fatal("no arrivals offered")
	}
	if res.Completed == 0 {
		t.Fatal("no ops completed")
	}
	// No completion-ratio assertion: a fixed 80ms window under a
	// CPU-starved test machine (the whole suite runs packages in parallel)
	// can legitimately leave offered work unserved.
	if len(res.Sojourn) == 0 {
		t.Fatal("no sojourn samples")
	}
	if p50, p999 := res.Sojourn.Quantile(0.5), res.Sojourn.Quantile(0.999); p50 <= 0 || p999 < p50 {
		t.Fatalf("bad quantiles: p50=%v p999=%v", p50, p999)
	}
}

func TestOpenLoopShedsAtMaxPending(t *testing.T) {
	// One worker, arrivals far beyond its service rate, a tiny admission
	// queue: the overflow must be shed, never block the arrival clock.
	cfg := quickOpenCfg()
	cfg.Nodes = 1
	cfg.WorkersPerNode = 1
	cfg.MaxPending = 4
	cfg.Duration = 60 * time.Millisecond
	cfg.Arrival = workload.NewConstant(50000)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatalf("no arrivals shed at MaxPending=4 (offered=%d completed=%d)",
			res.Offered, res.Completed)
	}
	if res.Offered < res.Shed+res.Completed {
		t.Fatalf("accounting broken: offered=%d shed=%d completed=%d",
			res.Offered, res.Shed, res.Completed)
	}
}

func TestOpenLoopZipfSampler(t *testing.T) {
	cfg := quickOpenCfg()
	cfg.KeyPicker = workload.NewZipf(0.9).Sample
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no completions under zipf sampler")
	}
}
