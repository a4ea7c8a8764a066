// Package rbtree implements the Red/Black-Tree set microbenchmark: a
// balanced binary search tree whose nodes are separate shared objects.
// Inserts perform the full red-black rebalancing (recolourings and
// rotations) transactionally, so one insert can write several nodes —
// the largest write sets of the paper's microbenchmarks. Removal uses lazy
// deletion (tombstones), keeping the red-black shape invariants intact.
package rbtree

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"dstm/internal/apps"
	"dstm/internal/object"
	"dstm/internal/stm"
)

// Root is the tree's entry point; Child is empty for an empty tree.
type Root struct {
	Child object.ID
}

// Copy implements object.Value.
func (r *Root) Copy() object.Value { c := *r; return &c }

// Node is one tree node. Red is the node colour; Deleted is the lazy-
// deletion tombstone.
type Node struct {
	Val     int64
	Red     bool
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
	// Name distinguishes multiple trees. Empty means "rb".
	Name string
}

// RBTree is the benchmark instance.
type RBTree struct {
	opts Options
	root object.ID
	seq  atomic.Uint64
	pick apps.KeyPicker
}

// New returns an RB-Tree benchmark.
func New(opts Options) *RBTree {
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
		opts.Name = "rb"
	}
	t := &RBTree{opts: opts, pick: apps.UniformKeys}
	t.root = object.ID(opts.Name + "/root")
	return t
}

// Name implements apps.Benchmark.
func (t *RBTree) Name() string { return "RB-Tree" }

// SetKeyPicker implements apps.Skewable: element values drawn by Op go
// through p.
func (t *RBTree) SetKeyPicker(p apps.KeyPicker) { t.pick = apps.PickerOrUniform(p) }

func (t *RBTree) newNodeID(rt *stm.Runtime) object.ID {
	return object.ID(fmt.Sprintf("%s/n/%d-%d", t.opts.Name, rt.Self(), t.seq.Add(1)))
}

// Setup implements apps.Benchmark.
func (t *RBTree) Setup(ctx context.Context, rts []*stm.Runtime) error {
	if err := rts[0].CreateRoot(ctx, t.root, &Root{}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(44))
	inserted := 0
	for inserted < t.opts.InitialSize {
		rt := rts[inserted%len(rts)]
		added, err := t.Add(ctx, rt, int64(rng.Intn(t.opts.KeyRange)))
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
func (t *RBTree) Op(ctx context.Context, rt *stm.Runtime, rng *rand.Rand, read bool) error {
	n := 1 + rng.Intn(t.opts.MaxNested)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(t.pick(rng, t.opts.KeyRange))
	}
	if read {
		return rt.Atomic(ctx, "rb/contains", func(tx *stm.Txn) error {
			for _, v := range vals {
				val := v
				if err := tx.Atomic(ctx, "rb/contains/one", func(c *stm.Txn) error {
					_, err := t.containsIn(ctx, c, val)
					return err
				}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return rt.Atomic(ctx, "rb/update", func(tx *stm.Txn) error {
		for i, v := range vals {
			val := v
			add := i%2 == 0
			if err := tx.Atomic(ctx, "rb/update/one", func(c *stm.Txn) error {
				var err error
				if add {
					_, err = t.addIn(ctx, c, rt, val)
				} else {
					_, err = t.removeIn(ctx, c, val)
				}
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

// workset is a transaction-local view of the tree: node working copies
// that can be mutated freely and flushed back in one pass.
type workset struct {
	t     *RBTree
	ctx   context.Context
	tx    *stm.Txn
	nodes map[object.ID]*Node
	dirty map[object.ID]bool
	fresh map[object.ID]bool // created in this operation

	rootChild object.ID
	rootDirty bool
}

func (t *RBTree) newWorkset(ctx context.Context, tx *stm.Txn) (*workset, error) {
	rv, err := tx.Read(ctx, t.root)
	if err != nil {
		return nil, err
	}
	return &workset{
		t:         t,
		ctx:       ctx,
		tx:        tx,
		nodes:     make(map[object.ID]*Node),
		dirty:     make(map[object.ID]bool),
		fresh:     make(map[object.ID]bool),
		rootChild: rv.(*Root).Child,
	}, nil
}

func (w *workset) get(id object.ID) (*Node, error) {
	if n, ok := w.nodes[id]; ok {
		return n, nil
	}
	v, err := w.tx.Read(w.ctx, id)
	if err != nil {
		return nil, err
	}
	n := v.(*Node).Copy().(*Node)
	w.nodes[id] = n
	return n, nil
}

func (w *workset) add(id object.ID, n *Node) {
	w.nodes[id] = n
	w.fresh[id] = true
}

func (w *workset) mark(id object.ID) { w.dirty[id] = true }

func (w *workset) setRoot(id object.ID) {
	w.rootChild = id
	w.rootDirty = true
}

func (w *workset) flush() error {
	for id := range w.fresh {
		if err := w.tx.Create(id, w.nodes[id]); err != nil {
			return err
		}
	}
	for id := range w.dirty {
		if w.fresh[id] {
			continue // Create already carries the final state
		}
		if err := w.tx.Write(w.ctx, id, w.nodes[id]); err != nil {
			return err
		}
	}
	if w.rootDirty {
		if err := w.tx.Write(w.ctx, w.t.root, &Root{Child: w.rootChild}); err != nil {
			return err
		}
	}
	return nil
}

// rotateLeft rotates the subtree rooted at x left and returns the new
// subtree root (x's former right child).
func (w *workset) rotateLeft(xid object.ID) (object.ID, error) {
	x, err := w.get(xid)
	if err != nil {
		return "", err
	}
	yid := x.Right
	y, err := w.get(yid)
	if err != nil {
		return "", err
	}
	x.Right = y.Left
	y.Left = xid
	w.mark(xid)
	w.mark(yid)
	return yid, nil
}

// rotateRight mirrors rotateLeft.
func (w *workset) rotateRight(xid object.ID) (object.ID, error) {
	x, err := w.get(xid)
	if err != nil {
		return "", err
	}
	yid := x.Left
	y, err := w.get(yid)
	if err != nil {
		return "", err
	}
	x.Left = y.Right
	y.Right = xid
	w.mark(xid)
	w.mark(yid)
	return yid, nil
}

// relink points the parent of a rotated subtree at its new root. parentID
// is "" when the subtree was the whole tree.
func (w *workset) relink(parentID, oldChild, newChild object.ID) error {
	if parentID == "" {
		w.setRoot(newChild)
		return nil
	}
	p, err := w.get(parentID)
	if err != nil {
		return err
	}
	if p.Left == oldChild {
		p.Left = newChild
	} else {
		p.Right = newChild
	}
	w.mark(parentID)
	return nil
}

func (t *RBTree) containsIn(ctx context.Context, tx *stm.Txn, v int64) (bool, error) {
	w, err := t.newWorkset(ctx, tx)
	if err != nil {
		return false, err
	}
	cur := w.rootChild
	for cur != "" {
		n, err := w.get(cur)
		if err != nil {
			return false, err
		}
		switch {
		case v == n.Val:
			return !n.Deleted, nil
		case v < n.Val:
			cur = n.Left
		default:
			cur = n.Right
		}
	}
	return false, nil
}

func (t *RBTree) removeIn(ctx context.Context, tx *stm.Txn, v int64) (bool, error) {
	w, err := t.newWorkset(ctx, tx)
	if err != nil {
		return false, err
	}
	cur := w.rootChild
	for cur != "" {
		n, err := w.get(cur)
		if err != nil {
			return false, err
		}
		switch {
		case v == n.Val:
			if n.Deleted {
				return false, nil
			}
			n.Deleted = true
			w.mark(cur)
			return true, w.flush()
		case v < n.Val:
			cur = n.Left
		default:
			cur = n.Right
		}
	}
	return false, nil
}

// addIn inserts v with full red-black insert fixup (CLRS, with an explicit
// ancestor stack instead of parent pointers).
func (t *RBTree) addIn(ctx context.Context, tx *stm.Txn, rt *stm.Runtime, v int64) (bool, error) {
	w, err := t.newWorkset(ctx, tx)
	if err != nil {
		return false, err
	}

	// Descend, recording the path root→parent.
	var path []object.ID
	cur := w.rootChild
	for cur != "" {
		n, err := w.get(cur)
		if err != nil {
			return false, err
		}
		if v == n.Val {
			if !n.Deleted {
				return false, nil
			}
			n.Deleted = false
			w.mark(cur)
			return true, w.flush()
		}
		path = append(path, cur)
		if v < n.Val {
			cur = n.Left
		} else {
			cur = n.Right
		}
	}

	// Attach the new red node.
	zid := t.newNodeID(rt)
	w.add(zid, &Node{Val: v, Red: true})
	if len(path) == 0 {
		w.setRoot(zid)
	} else {
		pid := path[len(path)-1]
		p := w.nodes[pid]
		if v < p.Val {
			p.Left = zid
		} else {
			p.Right = zid
		}
		w.mark(pid)
	}

	// Insert fixup.
	for len(path) > 0 {
		pid := path[len(path)-1]
		p := w.nodes[pid]
		if !p.Red {
			break
		}
		// A red parent implies a grandparent (the root is always black).
		gid := path[len(path)-2]
		g := w.nodes[gid]
		var ggid object.ID
		if len(path) >= 3 {
			ggid = path[len(path)-3]
		}

		if g.Left == pid {
			uncle, uncleID, err := w.child(g.Right)
			if err != nil {
				return false, err
			}
			if uncle != nil && uncle.Red {
				p.Red, uncle.Red, g.Red = false, false, true
				w.mark(pid)
				w.mark(uncleID)
				w.mark(gid)
				zid = gid
				path = path[:len(path)-2]
				continue
			}
			if p.Right == zid {
				newP, err := w.rotateLeft(pid)
				if err != nil {
					return false, err
				}
				g.Left = newP
				w.mark(gid)
				pid, zid = newP, pid
				p = w.nodes[pid]
			}
			newG, err := w.rotateRight(gid)
			if err != nil {
				return false, err
			}
			p.Red, g.Red = false, true
			w.mark(pid)
			w.mark(gid)
			if err := w.relink(ggid, gid, newG); err != nil {
				return false, err
			}
			break
		}

		// Mirror image: parent is the right child.
		uncle, uncleID, err := w.child(g.Left)
		if err != nil {
			return false, err
		}
		if uncle != nil && uncle.Red {
			p.Red, uncle.Red, g.Red = false, false, true
			w.mark(pid)
			w.mark(uncleID)
			w.mark(gid)
			zid = gid
			path = path[:len(path)-2]
			continue
		}
		if p.Left == zid {
			newP, err := w.rotateRight(pid)
			if err != nil {
				return false, err
			}
			g.Right = newP
			w.mark(gid)
			pid, zid = newP, pid
			p = w.nodes[pid]
		}
		newG, err := w.rotateLeft(gid)
		if err != nil {
			return false, err
		}
		p.Red, g.Red = false, true
		w.mark(pid)
		w.mark(gid)
		if err := w.relink(ggid, gid, newG); err != nil {
			return false, err
		}
		break
	}

	// The root is always black.
	if w.rootChild != "" {
		rn, err := w.get(w.rootChild)
		if err != nil {
			return false, err
		}
		if rn.Red {
			rn.Red = false
			w.mark(w.rootChild)
		}
	}
	return true, w.flush()
}

// child loads an optional child node ("" yields nil).
func (w *workset) child(id object.ID) (*Node, object.ID, error) {
	if id == "" {
		return nil, "", nil
	}
	n, err := w.get(id)
	return n, id, err
}

// Add inserts v, reporting whether the set changed.
func (t *RBTree) Add(ctx context.Context, rt *stm.Runtime, v int64) (bool, error) {
	var added bool
	err := rt.Atomic(ctx, "rb/add", func(tx *stm.Txn) error {
		var err error
		added, err = t.addIn(ctx, tx, rt, v)
		return err
	})
	return added, err
}

// Remove deletes v, reporting whether the set changed.
func (t *RBTree) Remove(ctx context.Context, rt *stm.Runtime, v int64) (bool, error) {
	var removed bool
	err := rt.Atomic(ctx, "rb/remove", func(tx *stm.Txn) error {
		var err error
		removed, err = t.removeIn(ctx, tx, v)
		return err
	})
	return removed, err
}

// Contains reports membership of v.
func (t *RBTree) Contains(ctx context.Context, rt *stm.Runtime, v int64) (bool, error) {
	var found bool
	err := rt.Atomic(ctx, "rb/contains", func(tx *stm.Txn) error {
		var err error
		found, err = t.containsIn(ctx, tx, v)
		return err
	})
	return found, err
}

// Snapshot returns the live elements in sorted order.
func (t *RBTree) Snapshot(ctx context.Context, rt *stm.Runtime) ([]int64, error) {
	var out []int64
	err := rt.Atomic(ctx, "rb/snapshot", func(tx *stm.Txn) error {
		out = out[:0]
		rv, err := tx.Read(ctx, t.root)
		if err != nil {
			return err
		}
		return t.inorder(ctx, tx, rv.(*Root).Child, &out)
	})
	return out, err
}

func (t *RBTree) inorder(ctx context.Context, tx *stm.Txn, id object.ID, out *[]int64) error {
	if id == "" {
		return nil
	}
	nv, err := tx.Read(ctx, id)
	if err != nil {
		return err
	}
	n := nv.(*Node)
	if err := t.inorder(ctx, tx, n.Left, out); err != nil {
		return err
	}
	if !n.Deleted {
		*out = append(*out, n.Val)
	}
	return t.inorder(ctx, tx, n.Right, out)
}

// Check implements apps.Benchmark: BST order plus the red-black shape
// invariants — the root is black, no red node has a red child, and every
// root-to-leaf path crosses the same number of black nodes.
func (t *RBTree) Check(ctx context.Context, rt *stm.Runtime) error {
	return rt.Atomic(ctx, "rb/check", func(tx *stm.Txn) error {
		rv, err := tx.Read(ctx, t.root)
		if err != nil {
			return err
		}
		rootID := rv.(*Root).Child
		if rootID == "" {
			return nil
		}
		rn, err := tx.Read(ctx, rootID)
		if err != nil {
			return err
		}
		if rn.(*Node).Red {
			return fmt.Errorf("rbtree: red root")
		}
		var prev *int64
		_, err = t.verify(ctx, tx, rootID, false, &prev)
		return err
	})
}

// verify walks the tree returning its black height and checking order and
// colour constraints.
func (t *RBTree) verify(ctx context.Context, tx *stm.Txn, id object.ID, parentRed bool, prev **int64) (int, error) {
	if id == "" {
		return 1, nil
	}
	nv, err := tx.Read(ctx, id)
	if err != nil {
		return 0, err
	}
	n := nv.(*Node)
	if parentRed && n.Red {
		return 0, fmt.Errorf("rbtree: red-red violation at %d", n.Val)
	}
	lh, err := t.verify(ctx, tx, n.Left, n.Red, prev)
	if err != nil {
		return 0, err
	}
	if *prev != nil && **prev >= n.Val {
		return 0, fmt.Errorf("rbtree: order violation at %d", n.Val)
	}
	v := n.Val
	*prev = &v
	rh, err := t.verify(ctx, tx, n.Right, n.Red, prev)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, fmt.Errorf("rbtree: black-height mismatch at %d: %d vs %d", n.Val, lh, rh)
	}
	if n.Red {
		return lh, nil
	}
	return lh + 1, nil
}
