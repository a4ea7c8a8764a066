package dht

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dstm/internal/testutil"
)

func TestPutGetRoundTrip(t *testing.T) {
	rts := testutil.Cluster(t, 3)
	d := New(Options{BucketsPerNode: 2})
	ctx := context.Background()
	if err := d.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}

	if err := d.Put(ctx, rts[0], "alpha", "1"); err != nil {
		t.Fatal(err)
	}
	// Read from another node.
	v, ok, err := d.Get(ctx, rts[2], "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !ok || v != "1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	// Missing key.
	_, ok, err = d.Get(ctx, rts[1], "ghost")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("ghost key found")
	}
}

func TestOverwrite(t *testing.T) {
	rts := testutil.Cluster(t, 2)
	d := New(Options{BucketsPerNode: 2})
	ctx := context.Background()
	if err := d.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Put(ctx, rts[i%2], "k", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := d.Get(ctx, rts[0], "k")
	if err != nil || !ok || v != "v2" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	n, err := d.Len(ctx, rts[0])
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestSequentialOracle(t *testing.T) {
	rts := testutil.Cluster(t, 2)
	d := New(Options{BucketsPerNode: 3, KeySpace: 32})
	ctx := context.Background()
	if err := d.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(32))
		v := fmt.Sprintf("v%d", i)
		if err := d.Put(ctx, rts[i%2], k, v); err != nil {
			t.Fatal(err)
		}
		oracle[k] = v
	}
	for k, want := range oracle {
		got, ok, err := d.Get(ctx, rts[0], k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || got != want {
			t.Fatalf("key %s = %q/%v, want %q", k, got, ok, want)
		}
	}
	n, err := d.Len(ctx, rts[1])
	if err != nil {
		t.Fatal(err)
	}
	if n != len(oracle) {
		t.Fatalf("Len = %d, want %d", n, len(oracle))
	}
	if err := d.Check(ctx, rts[0]); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	const nodes = 3
	rts := testutil.Cluster(t, nodes)
	d := New(Options{BucketsPerNode: 2})
	ctx := context.Background()
	if err := d.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := d.Put(ctx, rts[n], fmt.Sprintf("n%d-k%d", n, i), "x"); err != nil {
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
	cnt, err := d.Len(ctx, rts[0])
	if err != nil {
		t.Fatal(err)
	}
	if cnt != nodes*10 {
		t.Fatalf("Len = %d, want %d (lost puts)", cnt, nodes*10)
	}
}

func TestOpSmoke(t *testing.T) {
	rts := testutil.Cluster(t, 2)
	d := New(Options{BucketsPerNode: 2, KeySpace: 16})
	ctx := context.Background()
	if err := d.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		if err := d.Op(ctx, rts[i%2], rng, i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Check(ctx, rts[1]); err != nil {
		t.Fatal(err)
	}
	if d.Name() != "DHT" {
		t.Fatalf("name %q", d.Name())
	}
}
