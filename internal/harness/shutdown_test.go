package harness

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dstm/internal/apps/bank"
	"dstm/internal/stm"
	"dstm/internal/testbed"
	"dstm/internal/transport"
)

// TestShutdownLeavesCleanState is a regression test for a family of
// shutdown bugs: cancelling workers mid-transaction used to leave orphaned
// commit locks behind (lost acquire replies; releases issued on
// already-dead contexts; conservative releases mis-treating node 0 as "no
// owner"), permanently wedging the cluster — every later reader was denied
// forever. Each iteration runs a short contended workload, then verifies
// that no commit locks survive, ownership is single, and the invariant
// check completes promptly.
func TestShutdownLeavesCleanState(t *testing.T) {
	const iterations, nodes = 12, 3
	for iter := 0; iter < iterations; iter++ {
		c, err := testbed.New(testbed.Options{
			Nodes:     nodes,
			Scheduler: testbed.RTS,
			CLWindow:  time.Millisecond, // a few transaction lifetimes at this scale
			Seed:      int64(iter + 1),
			Latency: transport.MetricLatency{Min: time.Millisecond, Max: 50 * time.Millisecond,
				Scale: 0.002, Seed: uint64(iter + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		rts := c.Rts
		b := bank.New(bank.Options{AccountsPerNode: 4})
		ctx := context.Background()
		if err := b.Setup(ctx, rts); err != nil {
			t.Fatal(err)
		}

		runCtx, cancel := context.WithTimeout(ctx, 60*time.Millisecond)
		var wg sync.WaitGroup
		for n := 0; n < nodes; n++ {
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(rt *stm.Runtime, seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for runCtx.Err() == nil {
						_ = b.Op(runCtx, rt, rng, rng.Float64() < 0.5)
					}
				}(rts[n], int64(iter+1+n*1000+w))
			}
		}
		wg.Wait()
		cancel()

		// In-flight stale messages settle within a few link delays.
		time.Sleep(10 * time.Millisecond)

		// No object may remain commit-locked once all workers are gone,
		// and exactly one node owns each object.
		for i := 0; i < b.Accounts(); i++ {
			oid := bank.AccountID(i)
			owners := 0
			for n, rt := range rts {
				if !rt.Store().Owns(oid) {
					continue
				}
				owners++
				if _, lockedBy, _ := rt.Store().State(oid); lockedBy != 0 {
					t.Fatalf("iter %d: %s orphan-locked by %x at node %d", iter, oid, lockedBy, n)
				}
			}
			if owners != 1 {
				t.Fatalf("iter %d: %s owned by %d nodes, want exactly 1", iter, oid, owners)
			}
		}

		checkCtx, ccancel := context.WithTimeout(ctx, 5*time.Second)
		err = b.Check(checkCtx, rts[0])
		ccancel()
		if err != nil {
			t.Fatalf("iter %d: invariant check wedged or failed: %v", iter, err)
		}
		c.Close()
	}
}
