package rbtree

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"dstm/internal/testutil"
)

func TestAscendingInsertStaysBalanced(t *testing.T) {
	// Ascending inserts are the degenerate case for a plain BST; the RB
	// fixups must keep the shape invariants (checked by Check) intact.
	rts := testutil.Cluster(t, 2)
	tr := New(Options{KeyRange: 64, InitialSize: 1, Name: "rbt1"})
	ctx := context.Background()
	if err := tr.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 40; v++ {
		if _, err := tr.Add(ctx, rts[int(v)%2], v); err != nil {
			t.Fatal(err)
		}
		if err := tr.Check(ctx, rts[0]); err != nil {
			t.Fatalf("after insert %d: %v", v, err)
		}
	}
	snap, err := tr.Snapshot(ctx, rts[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) < 40 {
		t.Fatalf("snapshot has %d elements, want >= 40", len(snap))
	}
}

func TestDescendingInsert(t *testing.T) {
	rts := testutil.Cluster(t, 1)
	tr := New(Options{KeyRange: 64, InitialSize: 1, Name: "rbt2"})
	ctx := context.Background()
	if err := tr.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	for v := int64(63); v >= 20; v-- {
		if _, err := tr.Add(ctx, rts[0], v); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(ctx, rts[0]); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialOracle(t *testing.T) {
	rts := testutil.Cluster(t, 2)
	tr := New(Options{KeyRange: 48, InitialSize: 6, Name: "rbt3"})
	ctx := context.Background()
	if err := tr.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	oracle := map[int64]bool{}
	snap, err := tr.Snapshot(ctx, rts[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range snap {
		oracle[v] = true
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 250; i++ {
		v := int64(rng.Intn(48))
		rt := rts[i%2]
		switch rng.Intn(3) {
		case 0:
			added, err := tr.Add(ctx, rt, v)
			if err != nil {
				t.Fatal(err)
			}
			if added == oracle[v] {
				t.Fatalf("add(%d) = %v, oracle %v", v, added, oracle[v])
			}
			oracle[v] = true
		case 1:
			removed, err := tr.Remove(ctx, rt, v)
			if err != nil {
				t.Fatal(err)
			}
			if removed != oracle[v] {
				t.Fatalf("remove(%d) = %v, oracle %v", v, removed, oracle[v])
			}
			delete(oracle, v)
		default:
			ok, err := tr.Contains(ctx, rt, v)
			if err != nil {
				t.Fatal(err)
			}
			if ok != oracle[v] {
				t.Fatalf("contains(%d) = %v, oracle %v", v, ok, oracle[v])
			}
		}
		if i%50 == 0 {
			if err := tr.Check(ctx, rts[0]); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := tr.Check(ctx, rts[1]); err != nil {
		t.Fatal(err)
	}
	snap, err = tr.Snapshot(ctx, rts[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != len(oracle) {
		t.Fatalf("snapshot %d elements vs oracle %d", len(snap), len(oracle))
	}
	for _, v := range snap {
		if !oracle[v] {
			t.Fatalf("snapshot has %d not in oracle", v)
		}
	}
}

func TestConcurrentOps(t *testing.T) {
	const nodes = 3
	rts := testutil.Cluster(t, nodes)
	tr := New(Options{KeyRange: 32, InitialSize: 8, Name: "rbt4"})
	ctx := context.Background()
	if err := tr.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + n)))
			for i := 0; i < 12; i++ {
				if err := tr.Op(ctx, rts[n], rng, i%3 == 0); err != nil {
					errs <- err
					return
				}
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tr.Check(ctx, rts[0]); err != nil {
		t.Fatal(err)
	}
}

func TestDefaults(t *testing.T) {
	tr := New(Options{})
	if tr.opts.KeyRange <= 0 || tr.opts.InitialSize <= 0 {
		t.Fatalf("defaults: %+v", tr.opts)
	}
	if tr.Name() != "RB-Tree" {
		t.Fatalf("name %q", tr.Name())
	}
}
