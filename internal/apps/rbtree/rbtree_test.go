package rbtree

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dstm/internal/apps"
	"dstm/internal/object"
	"dstm/internal/stm"
	"dstm/internal/testutil"
	"dstm/internal/wire"
)

func TestAscendingInsertStaysBalanced(t *testing.T) {
	// Ascending inserts are the degenerate case for a plain BST. The RB
	// fixup must keep the tree shallow and its shape invariants (checked by
	// Check) intact. The BST, without the fixup, grows a right spine one
	// node per insert, and Check still passes because it skips the colour
	// rules, which no colouring of a spine meets.
	for _, tc := range []struct {
		name     string
		new      func(Options) *apps.Set
		root     object.ID
		balanced bool
	}{
		{"RB-Tree", New, "rb/root", true},
		{"BST", NewBST, "bst/root", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rts := testutil.Cluster(t, 2)
			tr := tc.new(Options{KeyRange: 64, InitialSize: 1})
			ctx := context.Background()
			if err := tr.Setup(ctx, rts); err != nil {
				t.Fatal(err)
			}
			// Values past KeyRange sort after the seeded element, so each
			// hangs off the previous one unless the fixup rotates.
			const n = 40
			for v := int64(64); v < 64+n; v++ {
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
			if len(snap) != n+1 {
				t.Fatalf("snapshot has %d elements, want %d", len(snap), n+1)
			}
			d, err := depth(ctx, rts[0], tc.root)
			if err != nil {
				t.Fatal(err)
			}
			if tc.balanced {
				// A red-black tree of k nodes is at most 2·log2(k+1) deep.
				if bound := 2 * bits.Len(uint(len(snap)+1)); d > bound {
					t.Fatalf("depth %d over %d nodes, want at most %d", d, len(snap), bound)
				}
			} else if d != len(snap) {
				t.Fatalf("depth %d over %d nodes, want a spine: the BST ran the fixup", d, len(snap))
			}
		})
	}
}

// depth returns the number of nodes on the tree's longest root-to-leaf
// path, read in one transaction.
func depth(ctx context.Context, rt *stm.Runtime, root object.ID) (int, error) {
	var d int
	err := rt.Atomic(ctx, "test/depth", func(tx *stm.Txn) error {
		var down func(id object.ID) (int, error)
		down = func(id object.ID) (int, error) {
			if id == "" {
				return 0, nil
			}
			nv, err := tx.Read(ctx, id)
			if err != nil {
				return 0, err
			}
			n := nv.(*Node)
			l, err := down(n.Left)
			if err != nil {
				return 0, err
			}
			r, err := down(n.Right)
			return 1 + max(l, r), err
		}
		rv, err := tx.Read(ctx, root)
		if err != nil {
			return err
		}
		d, err = down(rv.(*Root).Child)
		return err
	})
	return d, err
}

func TestDescendingInsert(t *testing.T) {
	rts := testutil.Cluster(t, 1)
	tr := New(Options{KeyRange: 64, InitialSize: 1})
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
	sequentialOracle(t, New(Options{KeyRange: 48, InitialSize: 6}), 48, 17)
}

// sequentialOracle runs 250 random single operations on tr from two nodes
// and checks every answer, and the final members, against a map.
func sequentialOracle(t *testing.T, tr *apps.Set, keyRange int, seed int64) {
	rts := testutil.Cluster(t, 2)
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

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 250; i++ {
		v := int64(rng.Intn(keyRange))
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
	concurrentOps(t, New(Options{KeyRange: 32, InitialSize: 8}), 300)
}

// concurrentOps runs twelve benchmark operations from each of three nodes
// at once, then checks the tree.
func concurrentOps(t *testing.T, tr *apps.Set, seed int64) {
	const nodes = 3
	rts := testutil.Cluster(t, nodes)
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
			rng := rand.New(rand.NewSource(seed + int64(n)))
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
	checkDefaults(t, New(Options{}), "RB-Tree")
}

// checkDefaults checks tr's name and that zero options seed KeyRange/2 =
// 32 elements from [0, 64).
func checkDefaults(t *testing.T, tr *apps.Set, name string) {
	if tr.Name() != name {
		t.Fatalf("name %q, want %q", tr.Name(), name)
	}
	rts := testutil.Cluster(t, 1)
	ctx := context.Background()
	if err := tr.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	snap, err := tr.Snapshot(ctx, rts[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 32 || snap[0] < 0 || snap[len(snap)-1] >= 64 {
		t.Fatalf("default setup seeded %v, want 32 elements from [0, 64)", snap)
	}
}

// TestBST covers the BST: this package's tree without the fixup.
func TestBST(t *testing.T) {
	t.Run("AddRemoveRevive", func(t *testing.T) {
		rts := testutil.Cluster(t, 2)
		b := NewBST(Options{KeyRange: 16, InitialSize: 1})
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
	})
	t.Run("SequentialOracle", func(t *testing.T) {
		sequentialOracle(t, NewBST(Options{KeyRange: 32, InitialSize: 5}), 32, 13)
	})
	t.Run("ConcurrentOps", func(t *testing.T) {
		concurrentOps(t, NewBST(Options{KeyRange: 24, InitialSize: 6}), 200)
	})
	t.Run("Defaults", func(t *testing.T) {
		checkDefaults(t, NewBST(Options{}), "BST")
	})
}

// TestRetiredWireIDsAreUnregistered: 106 and 107 were the BST's own root
// and node types; the BST's objects now travel as this package's 104 and
// 105. The retired IDs decode as unknown, so a frame from an old peer is
// rejected instead of being read as whatever type took the number over.
func TestRetiredWireIDsAreUnregistered(t *testing.T) {
	for _, id := range []wire.ID{106, 107} {
		t.Run(fmt.Sprintf("id%d", id), func(t *testing.T) {
			r := wire.NewReader(wire.AppendUvarint(nil, uint64(id)))
			v := r.Any(nil)
			err := r.Err()
			if v != nil || !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), "unknown wire type ID") {
				t.Fatalf("wire ID %d decoded to %T, err %v; want unknown wire type ID", id, v, err)
			}
		})
	}
}
