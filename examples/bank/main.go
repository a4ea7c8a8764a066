// Bank example: concurrent batch transfers (parents with closed-nested
// per-transfer inner transactions) across a simulated cluster, comparing
// the RTS scheduler against plain TFA on the same workload, and verifying
// money conservation.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"dstm"
	"dstm/internal/apps/bank"
	"dstm/internal/stm"
)

func run(scheduler dstm.SchedulerKind) {
	const nodes = 4
	const workers = 8
	const duration = 400 * time.Millisecond

	c := dstm.NewLocalCluster(dstm.ClusterOptions{
		Nodes:        nodes,
		Scheduler:    scheduler,
		CLThreshold:  3,
		LatencyMin:   time.Millisecond,
		LatencyMax:   50 * time.Millisecond,
		LatencyScale: 0.01,
	})
	defer c.Close()
	rts := c.Runtimes()

	ctx := context.Background()
	b := bank.New(bank.Options{AccountsPerNode: 6, MaxNested: 4})
	if err := b.Setup(ctx, rts); err != nil {
		log.Fatal(err)
	}

	runCtx, cancel := context.WithTimeout(ctx, duration)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(rt *stm.Runtime, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for runCtx.Err() == nil {
					// 50/50 read-write mix.
					_ = b.Op(runCtx, rt, rng, rng.Intn(2) == 0)
				}
			}(rts[n], int64(n*100+w))
		}
	}
	wg.Wait()
	cancel()

	var total stm.MetricsSnapshot
	for _, rt := range rts {
		total.Merge(rt.Metrics().Snapshot())
	}
	if err := b.Check(ctx, rts[0]); err != nil {
		log.Fatalf("%s: %v", scheduler, err)
	}
	fmt.Printf("%-12s  commits=%-6d aborts=%-6d nested-aborts(parent-caused)=%d/%d  throughput=%.0f tx/s  [conserved ✓]\n",
		scheduler, total.Commits, total.TotalAborts(),
		total.NestedParent, total.NestedOwn+total.NestedParent,
		float64(total.Commits)/duration.Seconds())
}

func main() {
	fmt.Println("Bank: 4 nodes × 3 workers, batch transfers with nested inner transfers")
	run(dstm.RTS)
	run(dstm.TFA)
	run(dstm.TFABackoff)
}
