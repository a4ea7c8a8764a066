package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"dstm/internal/apps/bank"
	"dstm/internal/stm"
	"dstm/internal/trace"
	"dstm/internal/trace/check"
	"dstm/internal/transport"
)

// runSpec says how to run a workload once.
type runSpec struct {
	W            workload
	Seed         int64
	Warm, Window time.Duration
	Traced       bool // attach the rpc/serve span tap, the scheduler tap and the trace recorder
	TFA          bool // TFA instead of RTS (core.rts_over_tfa_p50 only)
	Setups       int  // how many times at least to assemble and seed the cluster; the last one is driven
}

// counters is every cumulative counter the bench reads, at one instant.
type counters struct {
	At      time.Duration // offset from the hub's epoch
	Tap     tapStats
	CPU     time.Duration // process user+system time
	STM     stm.MetricsSnapshot
	Wire    transport.WireStats
	Policy  policyCounts
	Mallocs uint64
	Bytes   uint64
	Events  int64
}

// runResult is one run's raw material; endToEnd and perLayer turn it
// into metrics.
type runResult struct {
	Spec       runSpec
	SetupS     []float64
	Drive      driveResult
	Begin, End counters // at the measured window's two edges
	Verdict    verdict
	Spans      []rpcSpan // traced runs
	OracleErr  error
	Dropped    int64
	DepthMax   int // parked requesters, sampled every 10 ms
	GoroutMax  int
	Unanswered int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (tb *testbed) counters(traced bool) counters {
	c := counters{
		At:   tb.hub.now(),
		Tap:  tb.hub.stats(),
		CPU:  cpuTime(),
		STM:  tb.stmMetrics(),
		Wire: tb.wire(),
	}
	if traced {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		c.Mallocs, c.Bytes = ms.Mallocs, ms.TotalAlloc
		c.Policy = tb.pstats.counts()
		held, dropped := tb.traceEvents()
		c.Events = held + dropped
	}
	return c
}

// traceCapFor sizes each node's recorder ring so that it does not wrap.
// The busiest workload (wan-write90) emits about 180 events per
// operation across the cluster, 45 per node; 120 per node leaves room
// for an uneven split and for retry storms. The ring holds pointers, so
// the collector walks all of it every cycle: a ring ten times larger
// doubled the traced run's CPU.
func traceCapFor(s runSpec) int {
	ops := s.W.Rate * (s.Warm + s.Window).Seconds()
	return max(1<<16, int(ops*120))
}

// run assembles the workload's cluster, seeds the bank, drives the
// schedule and checks the outputs.
func run(s runSpec) (*runResult, error) {
	res := &runResult{Spec: s}
	if s.W.WriteSlot > 0 && s.W.AccountsPerNode*nodes < 2*writeClasses {
		return nil, fmt.Errorf("%s: rotating writers need two accounts per class", s.W.Name)
	}
	traceCap := 0
	if s.Traced {
		traceCap = traceCapFor(s)
	}
	var (
		tb *testbed
		b  *bank.Bank
	)
	// Set up s.Setups times; where that takes milliseconds (loopback TCP)
	// and a median was asked for, go on for half a second or to fifteen
	// times, so the median is as steady as that of a half-second set-up.
	var spent time.Duration
	again := func(i int) bool {
		return i < s.Setups || (s.Setups > 1 && i < 15 && spent < 500*time.Millisecond)
	}
	for i := 0; i == 0 || again(i); i++ {
		if tb != nil {
			tb.close()
		}
		t0 := time.Now()
		var err error
		if tb, err = newTestbed(s.W.Fabric, traceCap, s.TFA); err != nil {
			return nil, err
		}
		b = bank.New(bank.Options{AccountsPerNode: s.W.AccountsPerNode})
		ctx, cancel := context.WithTimeout(context.Background(), checkLimit)
		err = b.Setup(ctx, tb.rts)
		cancel()
		if err != nil {
			tb.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		spent += time.Since(t0)
	}
	defer tb.close()

	stopSampler := func() {}
	if s.Traced {
		stopSampler = res.sample(tb)
	}
	op := func(ctx context.Context, a arrival, rng *rand.Rand) error {
		return b.Op(ctx, tb.rts[a.Node], rng, a.Read)
	}
	if s.W.WriteSlot > 0 {
		picker := newClassPicker()
		b.SetKeyPicker(picker.pick)
		plain := op
		op = func(ctx context.Context, a arrival, rng *rand.Rand) error {
			if a.Class != anyClass {
				picker.begin(rng, a.Class)
				defer picker.end(rng)
			}
			return plain(ctx, a, rng)
		}
	}
	sched := buildSchedule(s.Seed, s.W.Rate, s.W.ReadFrac, s.Warm, s.Window, s.W.WriteSlot)
	marks := []time.Duration{s.Warm, s.Warm + s.Window}
	res.Drive = drive(context.Background(), tb.hub, sched, op, limits{opDeadline, drainLimit}, marks, func(i int) {
		if i == 0 {
			res.Begin = tb.counters(s.Traced)
		} else {
			res.End = tb.counters(s.Traced)
		}
	})
	stopSampler()

	res.Verdict = verify(tb, b)
	if s.Traced {
		logs := make([][]trace.Event, len(tb.recorders))
		for i, rec := range tb.recorders {
			logs[i] = rec.Events()
		}
		_, res.Dropped = tb.traceEvents()
		res.OracleErr = check.Run(trace.Merge(logs...), check.Options{Truncated: res.Dropped > 0}).Err()
		res.Spans = tb.hub.rpcSpans()
		for i := range res.Spans {
			if !res.Spans[i].answered() {
				res.Unanswered++
			}
		}
	}
	return res, nil
}

// sample starts the traced run's 10 ms sampler of scheduler queue depth
// and goroutine count; the returned function stops it and waits.
func (r *runResult) sample(tb *testbed) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				r.DepthMax = max(r.DepthMax, tb.queueDepth())
				r.GoroutMax = max(r.GoroutMax, runtime.NumGoroutine())
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}

// assembleSeed is the median time to assemble the cluster and seed the
// accounts, in seconds.
func (r *runResult) assembleSeed() float64 { return median(append([]float64(nil), r.SetupS...)) }

// window is the measured interval as the clock saw it.
func (r *runResult) window() time.Duration { return r.End.At - r.Begin.At }

// measuredOK returns the measured operations that completed in time.
func (r *runResult) measuredOK() []opSpan {
	var out []opSpan
	for _, s := range r.Drive.Done {
		if s.Measured && s.OK {
			out = append(out, s)
		}
	}
	return out
}

// failed counts the admitted measured operations that errored, hit the
// deadline, or had not returned when the drain ended.
func (r *runResult) failed() int { return r.Drive.Admitted - len(r.measuredOK()) }

// finished counts the operations — warm-up stragglers included — that
// completed between the window's edges: the divisor of every per-op
// count taken between those edges.
func (r *runResult) finished() int {
	n := 0
	for _, s := range r.Drive.Done {
		if s.OK && s.End >= r.Begin.At && s.End <= r.End.At {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the metrics a user of the cluster would see.
func (r *runResult) endToEnd() metrics {
	m := metrics{}
	var all, reads, writes []float64
	for _, s := range r.measuredOK() {
		l := ms(s.latency())
		all = append(all, l)
		if s.Read {
			reads = append(reads, l)
		} else {
			writes = append(writes, l)
		}
	}
	ops := r.finished()
	m.set("setup_s", "s", r.assembleSeed()+(r.Begin.At-r.Drive.Base).Seconds(), len(r.SetupS))
	m.set("op_p50_ms", "ms", quantile(all, 0.50), len(all))
	m.set("op_p95_ms", "ms", quantile(all, 0.95), len(all))
	m.set("read_p50_ms", "ms", quantile(reads, 0.50), len(reads))
	m.set("write_p50_ms", "ms", quantile(writes, 0.50), len(writes))
	m.set("write_p95_ms", "ms", quantile(writes, 0.95), len(writes))
	m.set("goodput_tps", "ops/s", ratio(float64(len(all)), r.window().Seconds()), len(all))
	m.set("failed_frac", "ratio", ratio(float64(r.failed()), float64(r.Drive.Admitted)), r.Drive.Admitted)
	m.set("msgs_per_op", "msgs/op", ratio(float64(r.End.Tap.Sent-r.Begin.Tap.Sent), float64(ops)), ops)
	m.set("cpu_ms_per_op", "ms/op", ratio(ms(r.End.CPU-r.Begin.CPU), float64(ops)), ops)
	return m
}
