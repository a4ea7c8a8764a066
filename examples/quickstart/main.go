// Quickstart: bring up a small in-memory D-STM cluster with the RTS
// scheduler, create a shared counter, and update it atomically — including
// from a closed-nested inner transaction — from several nodes.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dstm"
	"dstm/internal/object"
	"dstm/internal/stm"
)

// Counter is a user-defined shared object: anything with a deep Copy.
type Counter struct {
	N int64
}

// Copy implements object.Value.
func (c *Counter) Copy() object.Value { d := *c; return &d }

func main() {
	// 1. A 3-node cluster over the in-memory network with 1–5 ms links
	// (scaled by 0.1). Every node runs the paper's RTS scheduler.
	const nodes = 3
	c := dstm.NewLocalCluster(dstm.ClusterOptions{
		Nodes:        nodes,
		Scheduler:    dstm.RTS,
		CLThreshold:  3,
		LatencyMin:   time.Millisecond,
		LatencyMax:   5 * time.Millisecond,
		LatencyScale: 0.1,
	})
	defer c.Close()
	rts := c.Runtimes()

	ctx := context.Background()

	// 2. Node 0 seeds a shared counter; its home and ownership are
	// tracked by the cluster's directory.
	if err := rts[0].CreateRoot(ctx, "counter", &Counter{}); err != nil {
		log.Fatal(err)
	}

	// 3. Each node increments it atomically. The object migrates to the
	// committing node (dataflow D-STM).
	for i := 0; i < nodes; i++ {
		err := rts[i].Atomic(ctx, "inc", func(tx *stm.Txn) error {
			return tx.Update(ctx, "counter", func(v object.Value) object.Value {
				v.(*Counter).N++
				return v
			})
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// 4. A closed-nested transaction: the inner action is atomic on its
	// own, and its effects only become permanent when the outer commits.
	err := rts[1].Atomic(ctx, "outer", func(tx *stm.Txn) error {
		if err := tx.Atomic(ctx, "inner", func(c *stm.Txn) error {
			return c.Update(ctx, "counter", func(v object.Value) object.Value {
				v.(*Counter).N += 10
				return v
			})
		}); err != nil {
			return err
		}
		// The parent sees the inner commit immediately.
		v, err := tx.Read(ctx, "counter")
		if err != nil {
			return err
		}
		fmt.Printf("inside outer transaction, counter = %d\n", v.(*Counter).N)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// 5. Read the final value from yet another node.
	var final int64
	err = rts[2].Atomic(ctx, "read", func(tx *stm.Txn) error {
		v, err := tx.Read(ctx, "counter")
		if err != nil {
			return err
		}
		final = v.(*Counter).N
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final counter = %d (want 13)\n", final)
}
