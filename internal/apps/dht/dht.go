// Package dht implements the distributed-hash-table microbenchmark:
// key/value pairs sharded into bucket objects spread over the cluster.
// Write transactions put a few keys (one nested transaction per bucket
// touched); read transactions get keys. DHT transactions are the shortest
// of the paper's benchmarks.
package dht

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"

	"dstm/internal/apps"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/stm"
)

// Bucket is one hash-table shard.
type Bucket struct {
	M map[string]string
}

// Copy implements object.Value with a deep map copy.
func (b *Bucket) Copy() object.Value {
	c := &Bucket{M: make(map[string]string, len(b.M))}
	for k, v := range b.M {
		c.M[k] = v
	}
	return c
}

// Options configures the benchmark.
type Options struct {
	// BucketsPerNode is the number of bucket objects per node. 0 means 8.
	BucketsPerNode int
	// KeySpace is the number of distinct keys. 0 means 256.
	KeySpace int
	// MaxNested bounds the puts/gets per transaction. 0 means 3.
	MaxNested int
}

// DHT is the benchmark instance.
type DHT struct {
	opts    Options
	buckets int
	pick    apps.KeyPicker
}

// New returns a DHT benchmark.
func New(opts Options) *DHT {
	if opts.BucketsPerNode <= 0 {
		opts.BucketsPerNode = 8
	}
	if opts.KeySpace <= 0 {
		opts.KeySpace = 256
	}
	if opts.MaxNested <= 0 {
		opts.MaxNested = 3
	}
	return &DHT{opts: opts, pick: apps.UniformKeys}
}

// SetKeyPicker implements apps.Benchmark: the keys Op puts/gets go through
// p. Skewed keys concentrate traffic on the buckets the hot keys hash to.
func (d *DHT) SetKeyPicker(p apps.KeyPicker) { d.pick = apps.PickerOrUniform(p) }

// Name implements apps.Benchmark.
func (d *DHT) Name() string { return "DHT" }

// BucketID returns the object ID of bucket i.
func BucketID(i int) object.ID { return object.ID(fmt.Sprintf("dht/bucket/%d", i)) }

func (d *DHT) bucketOf(key string) object.ID {
	h := fnv.New32a()
	h.Write([]byte(key))
	return BucketID(int(h.Sum32()) % d.buckets)
}

func (d *DHT) key(i int) string { return fmt.Sprintf("k%d", i) }

// Setup implements apps.Benchmark: bucket i lives on node i mod N.
func (d *DHT) Setup(ctx context.Context, rts []*stm.Runtime) error {
	d.buckets = d.opts.BucketsPerNode * len(rts)
	ids := make([]object.ID, d.buckets)
	vals := make([]object.Value, d.buckets)
	for i := range ids {
		ids[i], vals[i] = BucketID(i), &Bucket{M: map[string]string{}}
	}
	return apps.Seed(ctx, rts, ids, vals)
}

// Op implements apps.Benchmark.
func (d *DHT) Op(ctx context.Context, rt *stm.Runtime, rng *rand.Rand, read bool) error {
	n := 1 + rng.Intn(d.opts.MaxNested)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = d.key(d.pick(rng, d.opts.KeySpace))
	}
	if read {
		return d.gets(ctx, rt, keys)
	}
	val := fmt.Sprintf("v%d", rng.Int63())
	return d.puts(ctx, rt, keys, val)
}

// bucketsOf is the access set of a batch of keys, for its root to announce.
func (d *DHT) bucketsOf(keys []string) []object.ID {
	oids := make([]object.ID, len(keys))
	for i, k := range keys {
		oids[i] = d.bucketOf(k)
	}
	return oids
}

// puts stores each key inside its own nested transaction.
func (d *DHT) puts(ctx context.Context, rt *stm.Runtime, keys []string, val string) error {
	return rt.Atomic(ctx, "dht/put", func(tx *stm.Txn) error {
		tx.Prefetch(ctx, d.bucketsOf(keys), sched.Read)
		for _, k := range keys {
			oid := d.bucketOf(k)
			key := k
			if err := tx.Atomic(ctx, "dht/put/one", func(c *stm.Txn) error {
				return c.Update(ctx, oid, func(v object.Value) object.Value {
					v.(*Bucket).M[key] = val
					return v
				})
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

// gets looks each key up inside its own nested transaction.
func (d *DHT) gets(ctx context.Context, rt *stm.Runtime, keys []string) error {
	return rt.Atomic(ctx, "dht/get", func(tx *stm.Txn) error {
		tx.Prefetch(ctx, d.bucketsOf(keys), sched.Read)
		for _, k := range keys {
			oid := d.bucketOf(k)
			key := k
			if err := tx.Atomic(ctx, "dht/get/one", func(c *stm.Txn) error {
				v, err := c.Read(ctx, oid)
				if err != nil {
					return err
				}
				_ = v.(*Bucket).M[key]
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

// Put stores key=val (public API convenience, used by examples).
func (d *DHT) Put(ctx context.Context, rt *stm.Runtime, key, val string) error {
	return d.puts(ctx, rt, []string{key}, val)
}

// Get reads a key. ok is false when absent.
func (d *DHT) Get(ctx context.Context, rt *stm.Runtime, key string) (string, bool, error) {
	var out string
	var ok bool
	err := rt.Atomic(ctx, "dht/get", func(tx *stm.Txn) error {
		v, err := tx.Read(ctx, d.bucketOf(key))
		if err != nil {
			return err
		}
		out, ok = v.(*Bucket).M[key]
		return nil
	})
	return out, ok, err
}

// allBuckets is the access set of a whole-table scan.
func (d *DHT) allBuckets() []object.ID {
	oids := make([]object.ID, d.buckets)
	for i := range oids {
		oids[i] = BucketID(i)
	}
	return oids
}

// Len counts stored keys across all buckets in one transaction.
func (d *DHT) Len(ctx context.Context, rt *stm.Runtime) (int, error) {
	total := 0
	err := rt.Atomic(ctx, "dht/len", func(tx *stm.Txn) error {
		vals, err := tx.ReadMany(ctx, d.allBuckets())
		if err != nil {
			return err
		}
		total = 0
		for _, v := range vals {
			total += len(v.(*Bucket).M)
		}
		return nil
	})
	return total, err
}

// Check implements apps.Benchmark: every stored key hashes to the bucket
// holding it.
func (d *DHT) Check(ctx context.Context, rt *stm.Runtime) error {
	return rt.Atomic(ctx, "dht/check", func(tx *stm.Txn) error {
		vals, err := tx.ReadMany(ctx, d.allBuckets())
		if err != nil {
			return err
		}
		for i, v := range vals {
			for k := range v.(*Bucket).M {
				if d.bucketOf(k) != BucketID(i) {
					return fmt.Errorf("dht: key %q stored in wrong bucket %d", k, i)
				}
			}
		}
		return nil
	})
}
