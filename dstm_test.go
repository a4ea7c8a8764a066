package dstm

import (
	"context"
	"testing"
	"time"

	"dstm/internal/object"
	"dstm/internal/stm"
)

type counter struct{ N int64 }

func (c *counter) Copy() object.Value { d := *c; return &d }

func TestLocalClusterDefaults(t *testing.T) {
	c := NewLocalCluster(ClusterOptions{})
	defer c.Close()
	if c.Size() != 4 {
		t.Fatalf("size = %d", c.Size())
	}
	if got := c.Runtime(0).Policy().Name(); got != "RTS" {
		t.Fatalf("default policy = %q", got)
	}
	if len(c.Runtimes()) != 4 {
		t.Fatalf("runtimes = %d", len(c.Runtimes()))
	}
}

func TestLocalClusterSchedulers(t *testing.T) {
	for kind, want := range map[SchedulerKind]string{
		RTS: "RTS", TFA: "TFA", TFABackoff: "TFA+Backoff",
	} {
		c := NewLocalCluster(ClusterOptions{Nodes: 2, Scheduler: kind})
		if got := c.Runtime(0).Policy().Name(); got != want {
			t.Fatalf("policy for %s = %q", kind, got)
		}
		c.Close()
	}
}

func TestLocalClusterEndToEnd(t *testing.T) {
	c := NewLocalCluster(ClusterOptions{
		Nodes:        3,
		LatencyMin:   time.Millisecond,
		LatencyMax:   5 * time.Millisecond,
		LatencyScale: 0.01,
	})
	defer c.Close()

	ctx := context.Background()
	if err := c.Runtime(0).CreateRoot(ctx, "c", &counter{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Size(); i++ {
		err := c.Runtime(i).Atomic(ctx, "inc", func(tx *stm.Txn) error {
			return tx.Update(ctx, "c", func(v object.Value) object.Value {
				v.(*counter).N++
				return v
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var got int64
	err := c.Runtime(1).Atomic(ctx, "read", func(tx *stm.Txn) error {
		v, err := tx.Read(ctx, "c")
		if err != nil {
			return err
		}
		got = v.(*counter).N
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
}

// TestLocalClusterBackoffScalesWithProfile: the facade's TFA+Backoff must be
// the baseline the paper runs compare against — its stall seeded by the
// profile's measured execution time from the table the runtime records
// commits into, not by a fixed 1 ms base.
func TestLocalClusterBackoffScalesWithProfile(t *testing.T) {
	c := NewLocalCluster(ClusterOptions{Nodes: 2, Scheduler: TFABackoff})
	defer c.Close()
	ctx := context.Background()
	if err := c.Runtime(0).CreateRoot(ctx, "c", &counter{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := c.Runtime(0).Atomic(ctx, "slow", func(tx *stm.Txn) error {
			time.Sleep(8 * time.Millisecond)
			return tx.Update(ctx, "c", func(v object.Value) object.Value {
				v.(*counter).N++
				return v
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// A fixed 1 ms base gives a first-retry stall of at most 1 ms (half
	// the base plus up to half again of jitter); an 8 ms profile at least 4.
	if d := c.Runtime(0).Policy().RetryDelay(1, "slow"); d <= time.Millisecond {
		t.Fatalf("first-retry stall for an 8 ms profile = %v, the fixed-base value", d)
	}
}
