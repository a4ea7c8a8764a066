// Package list implements the sorted Linked-List set microbenchmark. Every
// list node is a separate shared object, so operations traverse — and a
// transaction opens — a chain of distributed objects, giving the longest
// read sets of the paper's microbenchmarks.
package list

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"dstm/internal/apps"
	"dstm/internal/object"
	"dstm/internal/stm"
)

// Node is one list cell. The head sentinel has Val = minInt and holds only
// a Next link. An empty Next means end-of-list.
type Node struct {
	Val  int64
	Next object.ID
}

// Copy implements object.Value.
func (n *Node) Copy() object.Value { c := *n; return &c }

func init() { object.Register(&Node{}) }

// Options configures the benchmark.
type Options struct {
	// KeyRange bounds the element values [0, KeyRange). Small ranges give
	// short lists and high contention. 0 means 48.
	KeyRange int
	// InitialSize elements are inserted at setup. 0 means KeyRange/2.
	InitialSize int
	// MaxNested bounds nested operations per transaction. 0 means 2.
	MaxNested int
	// Name distinguishes multiple lists in one cluster. Empty means "ll".
	Name string
}

// List is the benchmark instance.
type List struct {
	opts Options
	head object.ID
	seq  atomic.Uint64
	pick apps.KeyPicker
}

// New returns a Linked-List benchmark.
func New(opts Options) *List {
	if opts.KeyRange <= 0 {
		opts.KeyRange = 48
	}
	if opts.InitialSize <= 0 {
		opts.InitialSize = opts.KeyRange / 2
	}
	if opts.MaxNested <= 0 {
		opts.MaxNested = 2
	}
	if opts.Name == "" {
		opts.Name = "ll"
	}
	l := &List{opts: opts, pick: apps.UniformKeys}
	l.head = object.ID(opts.Name + "/head")
	return l
}

// SetKeyPicker implements apps.Skewable: element values drawn by Op go
// through p. Skewed values cluster operations on one stretch of the
// sorted list, concentrating conflicts near its hottest nodes.
func (l *List) SetKeyPicker(p apps.KeyPicker) { l.pick = apps.PickerOrUniform(p) }

// Name implements apps.Benchmark.
func (l *List) Name() string { return "Linked-List" }

func (l *List) newNodeID(rt *stm.Runtime) object.ID {
	return object.ID(fmt.Sprintf("%s/n/%d-%d", l.opts.Name, rt.Self(), l.seq.Add(1)))
}

// Setup implements apps.Benchmark: creates the head sentinel on node 0 and
// seeds InitialSize distinct elements.
func (l *List) Setup(ctx context.Context, rts []*stm.Runtime) error {
	if err := rts[0].CreateRoot(ctx, l.head, &Node{Val: -1 << 62}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(42))
	inserted := 0
	for inserted < l.opts.InitialSize {
		rt := rts[inserted%len(rts)]
		v := int64(rng.Intn(l.opts.KeyRange))
		added, err := l.Add(ctx, rt, v)
		if err != nil {
			return err
		}
		if added {
			inserted++
		}
	}
	return nil
}

// Op implements apps.Benchmark.
func (l *List) Op(ctx context.Context, rt *stm.Runtime, rng *rand.Rand, read bool) error {
	n := 1 + rng.Intn(l.opts.MaxNested)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(l.pick(rng, l.opts.KeyRange))
	}
	if read {
		return rt.Atomic(ctx, "ll/contains", func(tx *stm.Txn) error {
			for _, v := range vals {
				val := v
				if err := tx.Atomic(ctx, "ll/contains/one", func(c *stm.Txn) error {
					_, err := l.containsIn(ctx, c, val)
					return err
				}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return rt.Atomic(ctx, "ll/update", func(tx *stm.Txn) error {
		for i, v := range vals {
			val := v
			var op func(context.Context, *stm.Txn, *stm.Runtime, int64) (bool, error)
			if i%2 == 0 {
				op = l.addIn
			} else {
				op = l.removeIn
			}
			if err := tx.Atomic(ctx, "ll/update/one", func(c *stm.Txn) error {
				_, err := op(ctx, c, rt, val)
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

// findIn walks the list inside tx until the first node with value >= v,
// returning the predecessor's ID, the node's ID ("" at end) and the node.
func (l *List) findIn(ctx context.Context, tx *stm.Txn, v int64) (prev object.ID, cur object.ID, curNode *Node, err error) {
	prev = l.head
	hv, err := tx.Read(ctx, l.head)
	if err != nil {
		return "", "", nil, err
	}
	cur = hv.(*Node).Next
	for cur != "" {
		nv, err := tx.Read(ctx, cur)
		if err != nil {
			return "", "", nil, err
		}
		n := nv.(*Node)
		if n.Val >= v {
			return prev, cur, n, nil
		}
		prev, cur = cur, n.Next
	}
	return prev, "", nil, nil
}

func (l *List) containsIn(ctx context.Context, tx *stm.Txn, v int64) (bool, error) {
	_, _, node, err := l.findIn(ctx, tx, v)
	if err != nil {
		return false, err
	}
	return node != nil && node.Val == v, nil
}

func (l *List) addIn(ctx context.Context, tx *stm.Txn, rt *stm.Runtime, v int64) (bool, error) {
	prev, cur, node, err := l.findIn(ctx, tx, v)
	if err != nil {
		return false, err
	}
	if node != nil && node.Val == v {
		return false, nil // already a member
	}
	id := l.newNodeID(rt)
	if err := tx.Create(id, &Node{Val: v, Next: cur}); err != nil {
		return false, err
	}
	if err := tx.Update(ctx, prev, func(val object.Value) object.Value {
		val.(*Node).Next = id
		return val
	}); err != nil {
		return false, err
	}
	return true, nil
}

func (l *List) removeIn(ctx context.Context, tx *stm.Txn, _ *stm.Runtime, v int64) (bool, error) {
	prev, _, node, err := l.findIn(ctx, tx, v)
	if err != nil {
		return false, err
	}
	if node == nil || node.Val != v {
		return false, nil // not a member
	}
	next := node.Next
	if err := tx.Update(ctx, prev, func(val object.Value) object.Value {
		val.(*Node).Next = next
		return val
	}); err != nil {
		return false, err
	}
	return true, nil
}

// Add inserts v, reporting whether the set changed.
func (l *List) Add(ctx context.Context, rt *stm.Runtime, v int64) (bool, error) {
	var added bool
	err := rt.Atomic(ctx, "ll/add", func(tx *stm.Txn) error {
		var err error
		added, err = l.addIn(ctx, tx, rt, v)
		return err
	})
	return added, err
}

// Remove deletes v, reporting whether the set changed.
func (l *List) Remove(ctx context.Context, rt *stm.Runtime, v int64) (bool, error) {
	var removed bool
	err := rt.Atomic(ctx, "ll/remove", func(tx *stm.Txn) error {
		var err error
		removed, err = l.removeIn(ctx, tx, rt, v)
		return err
	})
	return removed, err
}

// Contains reports membership of v.
func (l *List) Contains(ctx context.Context, rt *stm.Runtime, v int64) (bool, error) {
	var found bool
	err := rt.Atomic(ctx, "ll/contains", func(tx *stm.Txn) error {
		var err error
		found, err = l.containsIn(ctx, tx, v)
		return err
	})
	return found, err
}

// Snapshot returns the list's elements in order, in one transaction.
func (l *List) Snapshot(ctx context.Context, rt *stm.Runtime) ([]int64, error) {
	var out []int64
	err := rt.Atomic(ctx, "ll/snapshot", func(tx *stm.Txn) error {
		out = out[:0]
		hv, err := tx.Read(ctx, l.head)
		if err != nil {
			return err
		}
		cur := hv.(*Node).Next
		for cur != "" {
			nv, err := tx.Read(ctx, cur)
			if err != nil {
				return err
			}
			n := nv.(*Node)
			out = append(out, n.Val)
			cur = n.Next
		}
		return nil
	})
	return out, err
}

// Check implements apps.Benchmark: elements are strictly increasing (sorted
// set, no duplicates).
func (l *List) Check(ctx context.Context, rt *stm.Runtime) error {
	vals, err := l.Snapshot(ctx, rt)
	if err != nil {
		return err
	}
	for i := 1; i < len(vals); i++ {
		if vals[i-1] >= vals[i] {
			return fmt.Errorf("list: order violated at %d: %v", i, vals)
		}
	}
	return nil
}
