package bst

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"dstm/internal/testutil"
)

func TestAddRemoveRevive(t *testing.T) {
	rts := testutil.Cluster(t, 2)
	b := New(Options{KeyRange: 16, InitialSize: 1, Name: "bt1"})
	ctx := context.Background()
	if err := b.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}

	if _, err := b.Remove(ctx, rts[0], 9); err != nil {
		t.Fatal(err)
	}
	added, err := b.Add(ctx, rts[0], 9)
	if err != nil || !added {
		t.Fatalf("add = %v, %v", added, err)
	}
	if added, err := b.Add(ctx, rts[1], 9); err != nil || added {
		t.Fatalf("dup add = %v, %v", added, err)
	}
	if removed, err := b.Remove(ctx, rts[1], 9); err != nil || !removed {
		t.Fatalf("remove = %v, %v", removed, err)
	}
	if ok, err := b.Contains(ctx, rts[0], 9); err != nil || ok {
		t.Fatalf("contains tombstoned = %v, %v", ok, err)
	}
	// Revive: add after remove finds the tombstone and flips it.
	if added, err := b.Add(ctx, rts[0], 9); err != nil || !added {
		t.Fatalf("revive = %v, %v", added, err)
	}
	if ok, err := b.Contains(ctx, rts[1], 9); err != nil || !ok {
		t.Fatalf("contains revived = %v, %v", ok, err)
	}
}

func TestSequentialOracle(t *testing.T) {
	rts := testutil.Cluster(t, 2)
	b := New(Options{KeyRange: 32, InitialSize: 5, Name: "bt2"})
	ctx := context.Background()
	if err := b.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	oracle := map[int64]bool{}
	snap, err := b.Snapshot(ctx, rts[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range snap {
		oracle[v] = true
	}

	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 250; i++ {
		v := int64(rng.Intn(32))
		rt := rts[i%2]
		switch rng.Intn(3) {
		case 0:
			added, err := b.Add(ctx, rt, v)
			if err != nil {
				t.Fatal(err)
			}
			if added == oracle[v] {
				t.Fatalf("add(%d) = %v, oracle %v", v, added, oracle[v])
			}
			oracle[v] = true
		case 1:
			removed, err := b.Remove(ctx, rt, v)
			if err != nil {
				t.Fatal(err)
			}
			if removed != oracle[v] {
				t.Fatalf("remove(%d) = %v, oracle %v", v, removed, oracle[v])
			}
			delete(oracle, v)
		default:
			ok, err := b.Contains(ctx, rt, v)
			if err != nil {
				t.Fatal(err)
			}
			if ok != oracle[v] {
				t.Fatalf("contains(%d) = %v, oracle %v", v, ok, oracle[v])
			}
		}
	}
	if err := b.Check(ctx, rts[1]); err != nil {
		t.Fatal(err)
	}
	snap, err = b.Snapshot(ctx, rts[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != len(oracle) {
		t.Fatalf("snapshot %v vs oracle %v", snap, oracle)
	}
}

func TestConcurrentOps(t *testing.T) {
	const nodes = 3
	rts := testutil.Cluster(t, nodes)
	b := New(Options{KeyRange: 24, InitialSize: 6, Name: "bt3"})
	ctx := context.Background()
	if err := b.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + n)))
			for i := 0; i < 12; i++ {
				if err := b.Op(ctx, rts[n], rng, i%3 == 0); err != nil {
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
	if err := b.Check(ctx, rts[0]); err != nil {
		t.Fatal(err)
	}
}

func TestDefaults(t *testing.T) {
	b := New(Options{})
	if b.opts.KeyRange <= 0 || b.opts.InitialSize <= 0 {
		t.Fatalf("defaults: %+v", b.opts)
	}
	if b.Name() != "BST" {
		t.Fatalf("name %q", b.Name())
	}
}
