// DHT example: a distributed hash table over the D-STM — puts and gets are
// transactions, so multi-key updates are atomic and reads are consistent,
// with no locks in the interface.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dstm"
	"dstm/internal/apps/dht"
)

func main() {
	const nodes = 4
	c := dstm.NewLocalCluster(dstm.ClusterOptions{
		Nodes:        nodes,
		LatencyMin:   time.Millisecond,
		LatencyMax:   10 * time.Millisecond,
		LatencyScale: 0.05,
	})
	defer c.Close()
	rts := c.Runtimes()

	ctx := context.Background()
	d := dht.New(dht.Options{BucketsPerNode: 4})
	if err := d.Setup(ctx, rts); err != nil {
		log.Fatal(err)
	}

	// Writes from one node...
	for i, kv := range map[string]string{
		"go":     "gopher",
		"paper":  "IPDPS'12",
		"system": "HyFlow-style D-STM",
	} {
		if err := d.Put(ctx, rts[len(i)%nodes], i, kv); err != nil {
			log.Fatal(err)
		}
	}

	// ...are visible from every other node.
	for _, key := range []string{"go", "paper", "system", "missing"} {
		for n := 0; n < nodes; n++ {
			v, ok, err := d.Get(ctx, rts[n], key)
			if err != nil {
				log.Fatal(err)
			}
			if n == 0 {
				if ok {
					fmt.Printf("get(%q) = %q\n", key, v)
				} else {
					fmt.Printf("get(%q) = <absent>\n", key)
				}
			}
		}
	}

	n, err := d.Len(ctx, rts[2])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("table holds %d keys across %d buckets on %d nodes\n", n, 4*nodes, nodes)
	if err := d.Check(ctx, rts[1]); err != nil {
		log.Fatal(err)
	}
	fmt.Println("bucket-placement invariant holds ✓")
}
