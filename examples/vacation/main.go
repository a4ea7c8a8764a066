// Vacation example: the STAMP-style travel-reservation workload on an
// 8-node simulated cluster. Demonstrates the paper's motivating pattern —
// composing per-resource nested transactions into one atomic reservation —
// and prints the inventory invariant check.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"dstm"
	"dstm/internal/apps/vacation"
	"dstm/internal/stm"
)

func main() {
	const nodes = 8
	c := dstm.NewLocalCluster(dstm.ClusterOptions{
		Nodes:        nodes,
		Scheduler:    dstm.RTS,
		CLThreshold:  3,
		LatencyMin:   time.Millisecond,
		LatencyMax:   50 * time.Millisecond,
		LatencyScale: 0.005,
	})
	defer c.Close()
	rts := c.Runtimes()

	ctx := context.Background()
	v := vacation.New(vacation.Options{
		ResourcesPerKindPerNode: 2,
		CustomersPerNode:        2,
		UnitsPerResource:        30,
	})
	if err := v.Setup(ctx, rts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vacation: %d nodes, %d customers, 3 inventory tables seeded\n", nodes, 2*nodes)

	// Concurrent travel agents on every node book, cancel and query.
	runCtx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(rt *stm.Runtime, seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for runCtx.Err() == nil {
				_ = v.Op(runCtx, rt, rng, rng.Float64() < 0.3)
			}
		}(rts[n], int64(n))
	}
	wg.Wait()
	cancel()

	var total stm.MetricsSnapshot
	for _, rt := range rts {
		total.Merge(rt.Metrics().Snapshot())
	}
	fmt.Printf("vacation: %d reservations/cancellations/queries committed, %d aborted attempts\n",
		total.Commits, total.TotalAborts())
	fmt.Printf("vacation: %d nested transactions committed into parents\n", total.NestedCommits)

	if err := v.Check(ctx, rts[0]); err != nil {
		log.Fatal(err)
	}
	fmt.Println("vacation: inventory ↔ customer-reservation invariant holds ✓")
}
