package list

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"dstm/internal/testutil"
)

func TestAddRemoveContains(t *testing.T) {
	rts := testutil.Cluster(t, 2)
	l := New(Options{KeyRange: 16, InitialSize: 1})
	ctx := context.Background()
	if err := l.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}

	added, err := l.Add(ctx, rts[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		// 5 may have been the seeded element; remove and re-add.
		if _, err := l.Remove(ctx, rts[0], 5); err != nil {
			t.Fatal(err)
		}
		if added, err = l.Add(ctx, rts[0], 5); err != nil || !added {
			t.Fatalf("re-add: %v %v", added, err)
		}
	}
	// Duplicate add is a no-op.
	if added, err := l.Add(ctx, rts[1], 5); err != nil || added {
		t.Fatalf("duplicate add = %v, %v", added, err)
	}
	if ok, err := l.Contains(ctx, rts[1], 5); err != nil || !ok {
		t.Fatalf("contains = %v, %v", ok, err)
	}
	if removed, err := l.Remove(ctx, rts[0], 5); err != nil || !removed {
		t.Fatalf("remove = %v, %v", removed, err)
	}
	if ok, err := l.Contains(ctx, rts[0], 5); err != nil || ok {
		t.Fatalf("contains after remove = %v, %v", ok, err)
	}
	if removed, err := l.Remove(ctx, rts[1], 5); err != nil || removed {
		t.Fatalf("double remove = %v, %v", removed, err)
	}
}

func TestSequentialOracle(t *testing.T) {
	rts := testutil.Cluster(t, 2)
	l := New(Options{KeyRange: 24, InitialSize: 4})
	ctx := context.Background()
	if err := l.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	oracle := map[int64]bool{}
	snap, err := l.Snapshot(ctx, rts[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range snap {
		oracle[v] = true
	}

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		v := int64(rng.Intn(24))
		rt := rts[i%2]
		switch rng.Intn(3) {
		case 0:
			added, err := l.Add(ctx, rt, v)
			if err != nil {
				t.Fatal(err)
			}
			if added == oracle[v] {
				t.Fatalf("add(%d) = %v but oracle has %v", v, added, oracle[v])
			}
			oracle[v] = true
		case 1:
			removed, err := l.Remove(ctx, rt, v)
			if err != nil {
				t.Fatal(err)
			}
			if removed != oracle[v] {
				t.Fatalf("remove(%d) = %v but oracle has %v", v, removed, oracle[v])
			}
			delete(oracle, v)
		default:
			ok, err := l.Contains(ctx, rt, v)
			if err != nil {
				t.Fatal(err)
			}
			if ok != oracle[v] {
				t.Fatalf("contains(%d) = %v but oracle has %v", v, ok, oracle[v])
			}
		}
	}
	if err := l.Check(ctx, rts[0]); err != nil {
		t.Fatal(err)
	}
	snap, err = l.Snapshot(ctx, rts[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != len(oracle) {
		t.Fatalf("snapshot %v vs oracle %v", snap, oracle)
	}
	for _, v := range snap {
		if !oracle[v] {
			t.Fatalf("snapshot has %d not in oracle", v)
		}
	}
}

func TestConcurrentOpsKeepOrder(t *testing.T) {
	const nodes = 3
	rts := testutil.Cluster(t, nodes)
	l := New(Options{KeyRange: 20, InitialSize: 6})
	ctx := context.Background()
	if err := l.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + n)))
			for i := 0; i < 12; i++ {
				if err := l.Op(ctx, rts[n], rng, i%3 == 0); err != nil {
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
	if err := l.Check(ctx, rts[0]); err != nil {
		t.Fatal(err)
	}
}

func TestDefaults(t *testing.T) {
	l := New(Options{})
	if l.Name() != "Linked-List" {
		t.Fatalf("name %q", l.Name())
	}
	// Zero options seed KeyRange/2 = 24 elements from [0, 48).
	rts := testutil.Cluster(t, 1)
	ctx := context.Background()
	if err := l.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	snap, err := l.Snapshot(ctx, rts[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 24 || snap[0] < 0 || snap[len(snap)-1] >= 48 {
		t.Fatalf("default setup seeded %v, want 24 elements from [0, 48)", snap)
	}
}
