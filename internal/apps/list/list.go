// Package list implements the sorted Linked-List set microbenchmark. Every
// list node is a separate shared object, so operations traverse — and a
// transaction opens — a chain of distributed objects, giving the longest
// read sets of the paper's microbenchmarks. The benchmark itself (setup,
// operations, check) is apps.Set; this package supplies the layout.
package list

import (
	"context"

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

// Options configures the benchmark. KeyRange 0 means 48.
type Options = apps.SetOptions

// head is the sentinel's object ID.
const head object.ID = "ll/head"

// New returns a Linked-List benchmark.
func New(opts Options) *apps.Set {
	return apps.NewSet(apps.SetKind{Name: "Linked-List", Prefix: "ll", Seed: 42, KeyRange: 48}, opts, layout{})
}

// layout is the sorted singly linked list behind the head sentinel.
type layout struct{}

// Entry implements apps.Layout.
func (layout) Entry() (object.ID, object.Value) { return head, &Node{Val: -1 << 62} }

// find walks the list inside tx until the first node with value >= v,
// returning the predecessor's ID, the node's ID ("" at end) and the node.
func (layout) find(ctx context.Context, tx *stm.Txn, v int64) (prev object.ID, cur object.ID, curNode *Node, err error) {
	prev = head
	hv, err := tx.Read(ctx, head)
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

// Contains implements apps.Layout.
func (l layout) Contains(ctx context.Context, tx *stm.Txn, v int64) (bool, error) {
	_, _, node, err := l.find(ctx, tx, v)
	if err != nil {
		return false, err
	}
	return node != nil && node.Val == v, nil
}

// Add implements apps.Layout: links a new node in front of the first
// greater one.
func (l layout) Add(ctx context.Context, tx *stm.Txn, v int64, newID func() object.ID) (bool, error) {
	prev, cur, node, err := l.find(ctx, tx, v)
	if err != nil {
		return false, err
	}
	if node != nil && node.Val == v {
		return false, nil // already a member
	}
	id := newID()
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

// Remove implements apps.Layout: unlinks the node holding v.
func (l layout) Remove(ctx context.Context, tx *stm.Txn, v int64) (bool, error) {
	prev, _, node, err := l.find(ctx, tx, v)
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

// Walk implements apps.Layout.
func (layout) Walk(ctx context.Context, tx *stm.Txn, out *[]int64) error {
	hv, err := tx.Read(ctx, head)
	if err != nil {
		return err
	}
	for cur := hv.(*Node).Next; cur != ""; {
		nv, err := tx.Read(ctx, cur)
		if err != nil {
			return err
		}
		n := nv.(*Node)
		*out = append(*out, n.Val)
		cur = n.Next
	}
	return nil
}
