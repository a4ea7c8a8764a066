package apps

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"dstm/internal/object"
	"dstm/internal/stm"
)

// SetOptions configures a sorted-set benchmark (Linked-List, BST, RB-Tree).
type SetOptions struct {
	// KeyRange bounds the element values [0, KeyRange). Small ranges give
	// small structures and high contention. 0 means the structure's default.
	KeyRange int
	// InitialSize elements are inserted at setup. 0 means KeyRange/2.
	InitialSize int
}

// SetKind names one sorted-set benchmark and fixes what its setup seeds.
type SetKind struct {
	Name     string // display name ("Linked-List")
	Prefix   string // object-ID and transaction-profile prefix ("ll")
	Seed     int64  // setup RNG seed
	KeyRange int    // default KeyRange
}

// Layout is what a sorted-set structure supplies to Set: how its elements
// sit in shared objects. Every method but Entry runs inside tx.
type Layout interface {
	// Entry returns the entry object's ID and initial value.
	Entry() (object.ID, object.Value)
	Contains(ctx context.Context, tx *stm.Txn, v int64) (bool, error)
	// Add names the objects it creates with newID.
	Add(ctx context.Context, tx *stm.Txn, v int64, newID func() object.ID) (bool, error)
	Remove(ctx context.Context, tx *stm.Txn, v int64) (bool, error)
	// Walk appends the members to out in order.
	Walk(ctx context.Context, tx *stm.Txn, out *[]int64) error
}

// LayoutChecker is implemented by layouts with an invariant beyond sorted
// order; Set.Check runs it in the same transaction as the order check.
type LayoutChecker interface {
	Check(ctx context.Context, tx *stm.Txn) error
}

// maxNested bounds the nested operations per Set transaction.
const maxNested = 2

// Set is a sorted-set benchmark over one Layout: it seeds the structure,
// issues the nested contains/add/remove transactions and checks the
// result, whatever the layout.
type Set struct {
	kind   SetKind
	opts   SetOptions
	layout Layout
	seq    atomic.Uint64
	pick   KeyPicker
}

var _ Benchmark = (*Set)(nil)

// NewSet returns the benchmark kind over layout.
func NewSet(kind SetKind, opts SetOptions, layout Layout) *Set {
	if opts.KeyRange <= 0 {
		opts.KeyRange = kind.KeyRange
	}
	if opts.InitialSize <= 0 {
		opts.InitialSize = opts.KeyRange / 2
	}
	return &Set{kind: kind, opts: opts, layout: layout, pick: UniformKeys}
}

// Name implements Benchmark.
func (s *Set) Name() string { return s.kind.Name }

// SetKeyPicker implements Benchmark: element values drawn by Op go through
// p, so skewed values concentrate conflicts on one stretch of the set.
func (s *Set) SetKeyPicker(p KeyPicker) { s.pick = PickerOrUniform(p) }

// newID returns the node-ID source for one add on rt.
func (s *Set) newID(rt *stm.Runtime) func() object.ID {
	return func() object.ID {
		return object.ID(fmt.Sprintf("%s/n/%d-%d", s.kind.Prefix, rt.Self(), s.seq.Add(1)))
	}
}

// Setup implements Benchmark: creates the entry object on node 0, then
// inserts InitialSize distinct values, round-robin across the nodes.
func (s *Set) Setup(ctx context.Context, rts []*stm.Runtime) error {
	id, entry := s.layout.Entry()
	if err := Seed(ctx, rts, []object.ID{id}, []object.Value{entry}); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(s.kind.Seed))
	for inserted := 0; inserted < s.opts.InitialSize; {
		added, err := s.Add(ctx, rts[inserted%len(rts)], int64(rng.Intn(s.opts.KeyRange)))
		if err != nil {
			return err
		}
		if added {
			inserted++
		}
	}
	return nil
}

// Op implements Benchmark: a read runs one to maxNested nested contains; a
// write runs as many nested operations, alternately add and remove.
func (s *Set) Op(ctx context.Context, rt *stm.Runtime, rng *rand.Rand, read bool) error {
	vals := make([]int64, 1+rng.Intn(maxNested))
	for i := range vals {
		vals[i] = int64(s.pick(rng, s.opts.KeyRange))
	}
	p := s.kind.Prefix
	if read {
		return rt.Atomic(ctx, p+"/contains", func(tx *stm.Txn) error {
			for _, v := range vals {
				if err := tx.Atomic(ctx, p+"/contains/one", func(c *stm.Txn) error {
					_, err := s.layout.Contains(ctx, c, v)
					return err
				}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return rt.Atomic(ctx, p+"/update", func(tx *stm.Txn) error {
		for i, v := range vals {
			if err := tx.Atomic(ctx, p+"/update/one", func(c *stm.Txn) error {
				var err error
				if i%2 == 0 {
					_, err = s.layout.Add(ctx, c, v, s.newID(rt))
				} else {
					_, err = s.layout.Remove(ctx, c, v)
				}
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

// Add inserts v, reporting whether the set changed.
func (s *Set) Add(ctx context.Context, rt *stm.Runtime, v int64) (bool, error) {
	return s.one(ctx, rt, "/add", func(tx *stm.Txn) (bool, error) {
		return s.layout.Add(ctx, tx, v, s.newID(rt))
	})
}

// Remove deletes v, reporting whether the set changed.
func (s *Set) Remove(ctx context.Context, rt *stm.Runtime, v int64) (bool, error) {
	return s.one(ctx, rt, "/remove", func(tx *stm.Txn) (bool, error) {
		return s.layout.Remove(ctx, tx, v)
	})
}

// Contains reports membership of v.
func (s *Set) Contains(ctx context.Context, rt *stm.Runtime, v int64) (bool, error) {
	return s.one(ctx, rt, "/contains", func(tx *stm.Txn) (bool, error) {
		return s.layout.Contains(ctx, tx, v)
	})
}

// one runs op as its own transaction, profiled as the kind's prefix
// followed by suffix.
func (s *Set) one(ctx context.Context, rt *stm.Runtime, suffix string, op func(*stm.Txn) (bool, error)) (bool, error) {
	var ok bool
	err := rt.Atomic(ctx, s.kind.Prefix+suffix, func(tx *stm.Txn) error {
		var err error
		ok, err = op(tx)
		return err
	})
	return ok, err
}

// Snapshot returns the members in order, in one transaction.
func (s *Set) Snapshot(ctx context.Context, rt *stm.Runtime) ([]int64, error) {
	var out []int64
	err := rt.Atomic(ctx, s.kind.Prefix+"/snapshot", func(tx *stm.Txn) error {
		out = out[:0]
		return s.layout.Walk(ctx, tx, &out)
	})
	return out, err
}

// Check implements Benchmark, in one transaction: the members are strictly
// increasing (sorted, no duplicates), and the layout's own invariant holds
// if it has one.
func (s *Set) Check(ctx context.Context, rt *stm.Runtime) error {
	return rt.Atomic(ctx, s.kind.Prefix+"/check", func(tx *stm.Txn) error {
		var vals []int64
		if err := s.layout.Walk(ctx, tx, &vals); err != nil {
			return err
		}
		for i := 1; i < len(vals); i++ {
			if vals[i-1] >= vals[i] {
				return fmt.Errorf("%s: order violated at %d: %v", s.kind.Prefix, i, vals)
			}
		}
		if c, ok := s.layout.(LayoutChecker); ok {
			return c.Check(ctx, tx)
		}
		return nil
	})
}
