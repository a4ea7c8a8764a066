// Package bst implements the Binary-Search-Tree set microbenchmark: an
// unbalanced BST whose nodes are separate shared objects. Removal uses
// lazy deletion (a tombstone flag) so concurrent structural surgery is
// never needed; tombstoned values are revived in place by a later add.
package bst

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"dstm/internal/apps"
	"dstm/internal/object"
	"dstm/internal/stm"
)

// Root is the tree's entry-point object; Child is empty for an empty tree.
type Root struct {
	Child object.ID
}

// Copy implements object.Value.
func (r *Root) Copy() object.Value { c := *r; return &c }

// Node is one tree node.
type Node struct {
	Val     int64
	Left    object.ID
	Right   object.ID
	Deleted bool
}

// Copy implements object.Value.
func (n *Node) Copy() object.Value { c := *n; return &c }

func init() {
	object.Register(&Root{})
	object.Register(&Node{})
}

// Options configures the benchmark.
type Options struct {
	// KeyRange bounds element values. 0 means 64.
	KeyRange int
	// InitialSize elements are inserted at setup. 0 means KeyRange/2.
	InitialSize int
	// MaxNested bounds nested ops per transaction. 0 means 2.
	MaxNested int
	// Name distinguishes multiple trees. Empty means "bst".
	Name string
}

// BST is the benchmark instance.
type BST struct {
	opts Options
	root object.ID
	seq  atomic.Uint64
	pick apps.KeyPicker
}

// New returns a BST benchmark.
func New(opts Options) *BST {
	if opts.KeyRange <= 0 {
		opts.KeyRange = 64
	}
	if opts.InitialSize <= 0 {
		opts.InitialSize = opts.KeyRange / 2
	}
	if opts.MaxNested <= 0 {
		opts.MaxNested = 2
	}
	if opts.Name == "" {
		opts.Name = "bst"
	}
	b := &BST{opts: opts, pick: apps.UniformKeys}
	b.root = object.ID(opts.Name + "/root")
	return b
}

// SetKeyPicker implements apps.Skewable: element values drawn by Op go
// through p. Skewed values hammer one subtree of the (unbalanced) BST.
func (b *BST) SetKeyPicker(p apps.KeyPicker) { b.pick = apps.PickerOrUniform(p) }

// Name implements apps.Benchmark.
func (b *BST) Name() string { return "BST" }

func (b *BST) newNodeID(rt *stm.Runtime) object.ID {
	return object.ID(fmt.Sprintf("%s/n/%d-%d", b.opts.Name, rt.Self(), b.seq.Add(1)))
}

// Setup implements apps.Benchmark.
func (b *BST) Setup(ctx context.Context, rts []*stm.Runtime) error {
	if err := rts[0].CreateRoot(ctx, b.root, &Root{}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(43))
	inserted := 0
	for inserted < b.opts.InitialSize {
		rt := rts[inserted%len(rts)]
		added, err := b.Add(ctx, rt, int64(rng.Intn(b.opts.KeyRange)))
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
func (b *BST) Op(ctx context.Context, rt *stm.Runtime, rng *rand.Rand, read bool) error {
	n := 1 + rng.Intn(b.opts.MaxNested)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(b.pick(rng, b.opts.KeyRange))
	}
	if read {
		return rt.Atomic(ctx, "bst/contains", func(tx *stm.Txn) error {
			for _, v := range vals {
				val := v
				if err := tx.Atomic(ctx, "bst/contains/one", func(c *stm.Txn) error {
					_, err := b.containsIn(ctx, c, val)
					return err
				}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return rt.Atomic(ctx, "bst/update", func(tx *stm.Txn) error {
		for i, v := range vals {
			val := v
			add := i%2 == 0
			if err := tx.Atomic(ctx, "bst/update/one", func(c *stm.Txn) error {
				var err error
				if add {
					_, err = b.addIn(ctx, c, rt, val)
				} else {
					_, err = b.removeIn(ctx, c, val)
				}
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

// descend walks from the root to the node holding v or to the attachment
// point. It returns the node's ID ("" if absent), its value, the parent ID
// (root object when the tree is empty/at top) and whether v would go left.
func (b *BST) descend(ctx context.Context, tx *stm.Txn, v int64) (id object.ID, node *Node, parent object.ID, goLeft bool, err error) {
	rv, err := tx.Read(ctx, b.root)
	if err != nil {
		return "", nil, "", false, err
	}
	parent = b.root
	cur := rv.(*Root).Child
	for cur != "" {
		nv, err := tx.Read(ctx, cur)
		if err != nil {
			return "", nil, "", false, err
		}
		n := nv.(*Node)
		switch {
		case v == n.Val:
			return cur, n, parent, false, nil
		case v < n.Val:
			parent, goLeft, cur = cur, true, n.Left
		default:
			parent, goLeft, cur = cur, false, n.Right
		}
	}
	return "", nil, parent, goLeft, nil
}

func (b *BST) containsIn(ctx context.Context, tx *stm.Txn, v int64) (bool, error) {
	_, node, _, _, err := b.descend(ctx, tx, v)
	if err != nil {
		return false, err
	}
	return node != nil && !node.Deleted, nil
}

func (b *BST) addIn(ctx context.Context, tx *stm.Txn, rt *stm.Runtime, v int64) (bool, error) {
	id, node, parent, goLeft, err := b.descend(ctx, tx, v)
	if err != nil {
		return false, err
	}
	if node != nil {
		if !node.Deleted {
			return false, nil
		}
		// Revive the tombstoned node in place.
		err := tx.Update(ctx, id, func(val object.Value) object.Value {
			val.(*Node).Deleted = false
			return val
		})
		return err == nil, err
	}
	nid := b.newNodeID(rt)
	if err := tx.Create(nid, &Node{Val: v}); err != nil {
		return false, err
	}
	err = tx.Update(ctx, parent, func(val object.Value) object.Value {
		switch p := val.(type) {
		case *Root:
			p.Child = nid
		case *Node:
			if goLeft {
				p.Left = nid
			} else {
				p.Right = nid
			}
		}
		return val
	})
	return err == nil, err
}

func (b *BST) removeIn(ctx context.Context, tx *stm.Txn, v int64) (bool, error) {
	id, node, _, _, err := b.descend(ctx, tx, v)
	if err != nil {
		return false, err
	}
	if node == nil || node.Deleted {
		return false, nil
	}
	err = tx.Update(ctx, id, func(val object.Value) object.Value {
		val.(*Node).Deleted = true
		return val
	})
	return err == nil, err
}

// Add inserts v, reporting whether the set changed.
func (b *BST) Add(ctx context.Context, rt *stm.Runtime, v int64) (bool, error) {
	var added bool
	err := rt.Atomic(ctx, "bst/add", func(tx *stm.Txn) error {
		var err error
		added, err = b.addIn(ctx, tx, rt, v)
		return err
	})
	return added, err
}

// Remove deletes v, reporting whether the set changed.
func (b *BST) Remove(ctx context.Context, rt *stm.Runtime, v int64) (bool, error) {
	var removed bool
	err := rt.Atomic(ctx, "bst/remove", func(tx *stm.Txn) error {
		var err error
		removed, err = b.removeIn(ctx, tx, v)
		return err
	})
	return removed, err
}

// Contains reports membership of v.
func (b *BST) Contains(ctx context.Context, rt *stm.Runtime, v int64) (bool, error) {
	var found bool
	err := rt.Atomic(ctx, "bst/contains", func(tx *stm.Txn) error {
		var err error
		found, err = b.containsIn(ctx, tx, v)
		return err
	})
	return found, err
}

// Snapshot returns the live (non-tombstoned) elements in sorted order.
func (b *BST) Snapshot(ctx context.Context, rt *stm.Runtime) ([]int64, error) {
	var out []int64
	err := rt.Atomic(ctx, "bst/snapshot", func(tx *stm.Txn) error {
		out = out[:0]
		rv, err := tx.Read(ctx, b.root)
		if err != nil {
			return err
		}
		return b.inorder(ctx, tx, rv.(*Root).Child, &out)
	})
	return out, err
}

func (b *BST) inorder(ctx context.Context, tx *stm.Txn, id object.ID, out *[]int64) error {
	if id == "" {
		return nil
	}
	nv, err := tx.Read(ctx, id)
	if err != nil {
		return err
	}
	n := nv.(*Node)
	if err := b.inorder(ctx, tx, n.Left, out); err != nil {
		return err
	}
	if !n.Deleted {
		*out = append(*out, n.Val)
	}
	return b.inorder(ctx, tx, n.Right, out)
}

// Check implements apps.Benchmark: in-order traversal yields a strictly
// increasing sequence (BST order, set semantics).
func (b *BST) Check(ctx context.Context, rt *stm.Runtime) error {
	vals, err := b.Snapshot(ctx, rt)
	if err != nil {
		return err
	}
	for i := 1; i < len(vals); i++ {
		if vals[i-1] >= vals[i] {
			return fmt.Errorf("bst: order violated: %v", vals)
		}
	}
	return nil
}
