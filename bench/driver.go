package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"

	arrivals "dstm/internal/workload"
)

// arrival is one scheduled operation. Everything about it derives from
// the run's seed: when it is due, which node serves it, whether it is a
// read, and the seed of the generator its Op draws from.
type arrival struct {
	ID       int
	Due      time.Duration // offset from the start of the run
	Node     int
	Read     bool
	Seed     int64
	Measured bool // due inside the measured window, not the warm-up
	Class    int  // the account class a transfer's picks stay in (picks.go); anyClass unless the workload rotates writers
}

// buildSchedule lays out the warm-up and the measured window as two
// Poisson segments of exactly rate×length arrivals each, exactly
// readFrac of them reads: exponential gaps from workload.NewPoisson,
// rescaled so the segment's gaps fill it, and the reads' positions
// shuffled. (This draws Poisson arrivals conditioned on their count and
// a mix conditioned on its split, so every seed offers the same number
// of reads and of writes, and the metrics do not inherit the √n noise of
// those counts: a write costs four times the messages of a read.)
// Arrival i goes to node i mod 4. With writeSlot > 0 every write is
// given the account class its node owns in the slot it is due in.
func buildSchedule(seed int64, rate, readFrac float64, warm, window, writeSlot time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	proc := arrivals.NewPoisson(rate)
	var out []arrival
	segment := func(base, length time.Duration, measured bool) {
		n := int(math.Round(rate * length.Seconds()))
		if n <= 0 {
			return
		}
		cum := make([]float64, n+1)
		var sum float64
		for i := range cum {
			sum += float64(proc.Next(rng))
			cum[i] = sum
		}
		read := make([]bool, n)
		for i := 0; i < int(math.Round(readFrac*float64(n))); i++ {
			read[i] = true
		}
		rng.Shuffle(n, func(i, j int) { read[i], read[j] = read[j], read[i] })
		for k, c := range cum[:n] {
			a := arrival{
				ID:       len(out),
				Due:      base + time.Duration(c/sum*float64(length)),
				Node:     len(out) % nodes,
				Read:     read[k],
				Seed:     seed + 7919*int64(len(out)) + 1,
				Measured: measured,
				Class:    anyClass,
			}
			if writeSlot > 0 && !a.Read {
				a.Class = writeClass(a.Node, a.Due, writeSlot)
			}
			out = append(out, a)
		}
	}
	segment(0, warm, false)
	segment(warm, window, true)
	return out
}

// opSpan is the driver's record of one admitted operation. Times are
// offsets from the start of the run; latency counts from Due, so a wait
// in the admission queue or behind a late generator is charged.
type opSpan struct {
	arrival
	Worker     int
	Start, End time.Duration
	OK         bool
}

func (s opSpan) latency() time.Duration { return s.End - s.Due }

// opFunc serves one arrival on its node; the bank's Op behind it.
type opFunc func(ctx context.Context, a arrival, rng *rand.Rand) error

// driveResult is what one open-loop run produced. Its times, like the
// hub's, are offsets from the hub's epoch: Base is where the schedule's
// zero fell.
type driveResult struct {
	Base     time.Duration
	Done     []opSpan        // operations that returned, in completion order
	Admitted int             // measured arrivals queued
	Shed     int             // measured arrivals that found their node's queue full
	Lateness []time.Duration // how late the generator released each arrival
	DrainCut bool            // the drain hit its limit with operations still queued or in flight
}

// limits bound what one operation and the final drain may take.
type limits struct {
	Op    time.Duration // deadline of each operation's context
	Drain time.Duration // wait for queued and in-flight operations after the last arrival
}

// drive runs the schedule open loop: one generator releases each arrival
// at its due time to its node's bounded queue — late arrivals go out back
// to back, none is dropped to catch up — and four workers per node serve
// each queue. at is called on the generator's goroutine once the clock
// passes each mark (window start, window end). After the
// last arrival the queues drain for at most lim.Drain; whatever has not
// returned by then is cancelled, or left behind if it ignores that.
func drive(ctx context.Context, h *hub, sched []arrival, op opFunc, lim limits, marks []time.Duration, at func(i int)) driveResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		res    driveResult
		mu     sync.Mutex // guards done
		done   []opSpan
		queues [nodes]chan arrival
		wg     sync.WaitGroup
	)
	epoch := h.epoch
	res.Base = time.Since(epoch)
	for n := range queues {
		queues[n] = make(chan arrival, queueCap)
		for w := 0; w < workersPerNode; w++ {
			wg.Add(1)
			go func(n, w int) {
				defer wg.Done()
				for a := range queues[n] {
					span := opSpan{arrival: a, Worker: w, Start: time.Since(epoch)}
					h.active[n][w].Store(int64(a.ID) + 1)
					opCtx, stop := context.WithTimeout(ctx, lim.Op)
					err := op(opCtx, a, rand.New(rand.NewSource(a.Seed)))
					stop()
					h.active[n][w].Store(0)
					span.End = time.Since(epoch)
					span.OK = err == nil
					mu.Lock()
					done = append(done, span)
					mu.Unlock()
				}
			}(n, w)
		}
	}

	res.Lateness = make([]time.Duration, 0, len(sched))
	mark := 0
	passMarks := func(until time.Duration) {
		for mark < len(marks) && marks[mark] <= until {
			sleepUntil(epoch, res.Base+marks[mark])
			at(mark)
			mark++
		}
	}
	for _, a := range sched {
		passMarks(a.Due)
		a.Due += res.Base
		sleepUntil(epoch, a.Due)
		res.Lateness = append(res.Lateness, time.Since(epoch)-a.Due)
		select {
		case queues[a.Node] <- a:
			if a.Measured {
				res.Admitted++
			}
		default:
			if a.Measured {
				res.Shed++
			}
		}
	}
	passMarks(math.MaxInt64)
	for n := range queues {
		close(queues[n])
	}

	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(lim.Drain):
		// Let operations that honour their context return before the
		// outputs are read; one that never returns is left behind.
		cancel()
		select {
		case <-drained:
		case <-time.After(min(lim.Drain, time.Second)):
		}
		res.DrainCut = true
	}
	mu.Lock()
	res.Done = append([]opSpan(nil), done...)
	mu.Unlock()
	return res
}

func sleepUntil(epoch time.Time, due time.Duration) {
	if d := due - time.Since(epoch); d > 0 {
		time.Sleep(d)
	}
}
