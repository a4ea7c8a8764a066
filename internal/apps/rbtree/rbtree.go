// Package rbtree implements the two tree set microbenchmarks, RB-Tree and
// BST, over one binary search tree whose nodes are separate shared objects.
// RB-Tree inserts perform the full red-black rebalancing (recolourings and
// rotations) transactionally, so one insert can write several nodes — the
// largest write sets of the paper's microbenchmarks. The BST is the same
// tree without the fixup: an insert attaches a leaf (one Create, one write
// of the parent) and the tree stays unbalanced. Both remove by lazy
// deletion (a tombstone flag), so no structural surgery is ever needed and
// the red-black shape invariants stay intact; a later add revives a
// tombstone in place. The benchmark itself (setup, operations, check) is
// apps.Set; this package supplies the layout.
package rbtree

import (
	"context"
	"fmt"

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

// Node is one tree node. Red is the node colour, which only the RB-Tree's
// fixup and check read; Deleted is the lazy-deletion tombstone.
type Node struct {
	Val     int64
	Red     bool
	Left    object.ID
	Right   object.ID
	Deleted bool
}

// Copy implements object.Value.
func (n *Node) Copy() object.Value { c := *n; return &c }

// Options configures either benchmark. KeyRange 0 means 64.
type Options = apps.SetOptions

// New returns an RB-Tree benchmark.
func New(opts Options) *apps.Set { return newSet("RB-Tree", "rb", 44, true, opts) }

// NewBST returns a BST benchmark: the same tree, its inserts without the
// red-black fixup and its check without the colour rules.
func NewBST(opts Options) *apps.Set { return newSet("BST", "bst", 43, false, opts) }

func newSet(name, prefix string, seed int64, balanced bool, opts Options) *apps.Set {
	t := &tree{root: object.ID(prefix + "/root"), balanced: balanced}
	return apps.NewSet(apps.SetKind{Name: name, Prefix: prefix, Seed: seed, KeyRange: 64}, opts, t)
}

// tree is the layout: the root object, and whether inserts keep the
// red-black rules.
type tree struct {
	root     object.ID
	balanced bool
}

var _ apps.LayoutChecker = (*tree)(nil)

// Entry implements apps.Layout.
func (t *tree) Entry() (object.ID, object.Value) { return t.root, &Root{} }

// workset is a transaction-local view of the tree: node working copies
// that can be mutated freely and flushed back in one pass.
type workset struct {
	t     *tree
	ctx   context.Context
	tx    *stm.Txn
	nodes map[object.ID]*Node
	dirty map[object.ID]bool
	fresh map[object.ID]bool // created in this operation

	rootChild object.ID
	rootDirty bool
}

func (t *tree) newWorkset(ctx context.Context, tx *stm.Txn) (*workset, error) {
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

// descend walks from the root towards v. It returns the node holding v (id
// "" and n nil if there is none) and the IDs of the nodes above it, root
// first: the ancestors of where v is or would be attached.
func (w *workset) descend(v int64) (id object.ID, n *Node, path []object.ID, err error) {
	for cur := w.rootChild; cur != ""; {
		n, err := w.get(cur)
		if err != nil {
			return "", nil, nil, err
		}
		if v == n.Val {
			return cur, n, path, nil
		}
		path = append(path, cur)
		if v < n.Val {
			cur = n.Left
		} else {
			cur = n.Right
		}
	}
	return "", nil, path, nil
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

// Contains implements apps.Layout.
func (t *tree) Contains(ctx context.Context, tx *stm.Txn, v int64) (bool, error) {
	w, err := t.newWorkset(ctx, tx)
	if err != nil {
		return false, err
	}
	_, n, _, err := w.descend(v)
	return n != nil && !n.Deleted, err
}

// Remove implements apps.Layout: tombstones the node holding v.
func (t *tree) Remove(ctx context.Context, tx *stm.Txn, v int64) (bool, error) {
	w, err := t.newWorkset(ctx, tx)
	if err != nil {
		return false, err
	}
	id, n, _, err := w.descend(v)
	if err != nil || n == nil || n.Deleted {
		return false, err
	}
	n.Deleted = true
	w.mark(id)
	return true, w.flush()
}

// Add implements apps.Layout: revives v's tombstone in place, or attaches a
// new leaf and, in a red-black tree, runs the insert fixup.
func (t *tree) Add(ctx context.Context, tx *stm.Txn, v int64, newID func() object.ID) (bool, error) {
	w, err := t.newWorkset(ctx, tx)
	if err != nil {
		return false, err
	}
	id, n, path, err := w.descend(v)
	if err != nil {
		return false, err
	}
	if n != nil {
		if !n.Deleted {
			return false, nil
		}
		n.Deleted = false
		w.mark(id)
		return true, w.flush()
	}

	// Attach the new red node.
	zid := newID()
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
	if t.balanced {
		if err := w.fixup(path, zid); err != nil {
			return false, err
		}
	}
	return true, w.flush()
}

// fixup restores the red-black rules after the red node zid was attached
// below path (root → parent): CLRS's insert fixup, with an explicit
// ancestor stack instead of parent pointers.
func (w *workset) fixup(path []object.ID, zid object.ID) error {
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
				return err
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
					return err
				}
				g.Left = newP
				w.mark(gid)
				pid, zid = newP, pid
				p = w.nodes[pid]
			}
			newG, err := w.rotateRight(gid)
			if err != nil {
				return err
			}
			p.Red, g.Red = false, true
			w.mark(pid)
			w.mark(gid)
			if err := w.relink(ggid, gid, newG); err != nil {
				return err
			}
			break
		}

		// Mirror image: parent is the right child.
		uncle, uncleID, err := w.child(g.Left)
		if err != nil {
			return err
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
				return err
			}
			g.Right = newP
			w.mark(gid)
			pid, zid = newP, pid
			p = w.nodes[pid]
		}
		newG, err := w.rotateLeft(gid)
		if err != nil {
			return err
		}
		p.Red, g.Red = false, true
		w.mark(pid)
		w.mark(gid)
		if err := w.relink(ggid, gid, newG); err != nil {
			return err
		}
		break
	}

	// The root is always black.
	if w.rootChild != "" {
		rn, err := w.get(w.rootChild)
		if err != nil {
			return err
		}
		if rn.Red {
			rn.Red = false
			w.mark(w.rootChild)
		}
	}
	return nil
}

// child loads an optional child node ("" yields nil).
func (w *workset) child(id object.ID) (*Node, object.ID, error) {
	if id == "" {
		return nil, "", nil
	}
	n, err := w.get(id)
	return n, id, err
}

// Walk implements apps.Layout: the live elements, in order.
func (t *tree) Walk(ctx context.Context, tx *stm.Txn, out *[]int64) error {
	rv, err := tx.Read(ctx, t.root)
	if err != nil {
		return err
	}
	return inorder(ctx, tx, rv.(*Root).Child, out)
}

func inorder(ctx context.Context, tx *stm.Txn, id object.ID, out *[]int64) error {
	if id == "" {
		return nil
	}
	nv, err := tx.Read(ctx, id)
	if err != nil {
		return err
	}
	n := nv.(*Node)
	if err := inorder(ctx, tx, n.Left, out); err != nil {
		return err
	}
	if !n.Deleted {
		*out = append(*out, n.Val)
	}
	return inorder(ctx, tx, n.Right, out)
}

// Check implements apps.LayoutChecker: a red-black tree keeps the colour
// rules — the root is black, no red node has a red child, and every
// root-to-leaf path crosses the same number of black nodes. A BST has
// none.
func (t *tree) Check(ctx context.Context, tx *stm.Txn) error {
	if !t.balanced {
		return nil
	}
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
	_, err = blackHeight(ctx, tx, rootID, false)
	return err
}

// blackHeight returns the black height of the subtree at id, checking the
// colour rules on the way.
func blackHeight(ctx context.Context, tx *stm.Txn, id object.ID, parentRed bool) (int, error) {
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
	lh, err := blackHeight(ctx, tx, n.Left, n.Red)
	if err != nil {
		return 0, err
	}
	rh, err := blackHeight(ctx, tx, n.Right, n.Red)
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
