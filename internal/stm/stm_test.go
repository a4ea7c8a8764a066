package stm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dstm/internal/cc"
	"dstm/internal/cluster"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
	"dstm/internal/vclock"
)

// box is a simple shared counter object.
type box struct{ N int64 }

func (b *box) Copy() object.Value { c := *b; return &c }

// pair is a two-field object for read-your-writes tests.
type pair struct{ A, B int64 }

func (p *pair) Copy() object.Value { c := *p; return &c }

type testCluster struct {
	net *transport.Network
	rts []*Runtime
}

// newTestCluster builds n runtimes over an in-memory network. mkPolicy is
// called once per node; nil means plain TFA.
func newTestCluster(t testing.TB, n int, lat transport.LatencyModel, mkPolicy func() sched.Policy) *testCluster {
	t.Helper()
	if mkPolicy == nil {
		mkPolicy = func() sched.Policy { return sched.NewTFA() }
	}
	net := transport.NewNetwork(lat)
	tc := &testCluster{net: net}
	for i := 0; i < n; i++ {
		ep := cluster.NewEndpoint(net.Endpoint(transport.NodeID(i)), &vclock.Clock{})
		tc.rts = append(tc.rts, NewRuntime(ep, n, mkPolicy(), nil))
	}
	t.Cleanup(func() { net.Close() })
	return tc
}

// newRuntimeOn attaches one plain-TFA runtime to an existing network (for
// tests that need direct access to the network, e.g. fault injection).
func newRuntimeOn(net *transport.Network, id, size int) *Runtime {
	ep := cluster.NewEndpoint(net.Endpoint(transport.NodeID(id)), &vclock.Clock{})
	return NewRuntime(ep, size, sched.NewTFA(), nil)
}

func TestSingleNodeReadWrite(t *testing.T) {
	tc := newTestCluster(t, 1, nil, nil)
	rt := tc.rts[0]
	ctx := context.Background()
	if err := rt.CreateRoot(ctx, "x", &box{N: 5}); err != nil {
		t.Fatal(err)
	}

	err := rt.Atomic(ctx, "inc", func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		n := v.(*box).N
		return tx.Write(ctx, "x", &box{N: n + 1})
	})
	if err != nil {
		t.Fatal(err)
	}

	var got int64
	err = rt.Atomic(ctx, "read", func(tx *Txn) error {
		v, err := tx.Read(ctx, "x")
		if err != nil {
			return err
		}
		got = v.(*box).N
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("x = %d, want 6", got)
	}
	m := rt.Metrics().Snapshot()
	if m.Commits != 2 {
		t.Fatalf("commits = %d", m.Commits)
	}
}

func TestCrossNodeFetchAndMigration(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	// Node 0 owns the object initially.
	if err := tc.rts[0].CreateRoot(ctx, "m", &box{N: 1}); err != nil {
		t.Fatal(err)
	}

	// Node 2 writes it: ownership must migrate to node 2.
	err := tc.rts[2].Atomic(ctx, "w", func(tx *Txn) error {
		return tx.Update(ctx, "m", func(v object.Value) object.Value {
			v.(*box).N = 42
			return v
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if tc.rts[0].Store().Owns("m") {
		t.Fatal("node 0 still owns the object after remote commit")
	}
	if !tc.rts[2].Store().Owns("m") {
		t.Fatal("node 2 does not own the object after its commit")
	}

	// Node 1 reads through the directory (hint chasing from scratch).
	var got int64
	err = tc.rts[1].Atomic(ctx, "r", func(tx *Txn) error {
		v, err := tx.Read(ctx, "m")
		if err != nil {
			return err
		}
		got = v.(*box).N
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("read %d, want 42", got)
	}
}

func TestStaleOwnerHintChased(t *testing.T) {
	tc := newTestCluster(t, 3, nil, nil)
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "h", &box{N: 0}); err != nil {
		t.Fatal(err)
	}
	// Node 1 reads, caching owner=node0.
	if err := tc.rts[1].Atomic(ctx, "r", func(tx *Txn) error {
		_, err := tx.Read(ctx, "h")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Node 2 takes ownership.
	if err := tc.rts[2].Atomic(ctx, "w", func(tx *Txn) error {
		return tx.Write(ctx, "h", &box{N: 9})
	}); err != nil {
		t.Fatal(err)
	}
	// Node 1's stale hint (node 0) must be chased to node 2.
	var got int64
	if err := tc.rts[1].Atomic(ctx, "r2", func(tx *Txn) error {
		v, err := tx.Read(ctx, "h")
		if err != nil {
			return err
		}
		got = v.(*box).N
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("read %d, want 9", got)
	}
}

func TestReadYourWrites(t *testing.T) {
	tc := newTestCluster(t, 1, nil, nil)
	rt := tc.rts[0]
	ctx := context.Background()
	if err := rt.CreateRoot(ctx, "p", &pair{A: 1, B: 2}); err != nil {
		t.Fatal(err)
	}
	err := rt.Atomic(ctx, "ryw", func(tx *Txn) error {
		if err := tx.Write(ctx, "p", &pair{A: 10, B: 20}); err != nil {
			return err
		}
		v, err := tx.Read(ctx, "p")
		if err != nil {
			return err
		}
		if p := v.(*pair); p.A != 10 || p.B != 20 {
			return fmt.Errorf("read-your-writes failed: %+v", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreateVisibleAfterCommitOnly(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()

	err := tc.rts[0].Atomic(ctx, "create", func(tx *Txn) error {
		if err := tx.Create("fresh", &box{N: 7}); err != nil {
			return err
		}
		// Read-your-writes on the created object.
		v, err := tx.Read(ctx, "fresh")
		if err != nil {
			return err
		}
		if v.(*box).N != 7 {
			return fmt.Errorf("created object reads %+v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	err = tc.rts[1].Atomic(ctx, "read", func(tx *Txn) error {
		v, err := tx.Read(ctx, "fresh")
		if err != nil {
			return err
		}
		got = v.(*box).N
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("read %d, want 7", got)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	tc := newTestCluster(t, 1, nil, nil)
	rt := tc.rts[0]
	ctx := context.Background()
	if err := rt.CreateRoot(ctx, "dup", &box{}); err != nil {
		t.Fatal(err)
	}
	err := rt.Atomic(ctx, "create", func(tx *Txn) error {
		return tx.Create("dup", &box{N: 1})
	})
	if err == nil {
		t.Fatal("creating an existing object committed")
	}
	// Double-create within one transaction is caught immediately.
	err = rt.Atomic(ctx, "create2", func(tx *Txn) error {
		if err := tx.Create("dup2", &box{}); err != nil {
			return err
		}
		if err := tx.Create("dup2", &box{}); err == nil {
			return errors.New("second Create of same id succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFailedCreatePublishStillPublishesTheRest: a commit creates c0 and c1,
// homed at node 1, and c0 loses its commit lock while the registration is on
// the wire. The commit reports c0's failed update, and still publishes c1 and
// frees its lock: creations publish through the same loop as local writes,
// which carries on past a failed entry.
func TestFailedCreatePublishStillPublishesTheRest(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	var created []object.ID
	for i := 0; len(created) < 2; i++ {
		if oid := object.ID(fmt.Sprintf("c%d", i)); cc.HomeOf(oid, 2) == 1 {
			created = append(created, oid)
		}
	}
	st := tc.rts[0].Store()
	tc.net.SetInterceptor(func(m *transport.Message) bool {
		if m.Kind == cc.KindRegisterBatch && !m.IsReply {
			_, by, _ := st.State(created[0])
			st.Unlock(created[0], by)
		}
		return true
	})

	err := tc.rts[0].Atomic(ctx, "create", func(tx *Txn) error {
		for _, oid := range created {
			if err := tx.Create(oid, &box{N: 5}); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), string(created[0])) {
		t.Fatalf("err = %v, want %s's failed update", err, created[0])
	}
	for _, oid := range created {
		if st.Locked(oid) {
			t.Fatalf("%s left locked", oid)
		}
	}
	if val, ver, _, ok := st.Snapshot(created[1]); !ok || ver.Clock == 0 || val.(*box).N != 5 {
		t.Fatalf("%s = %v at %v (owned %v), want 5 at a committed version", created[1], val, ver, ok)
	}
}

func TestConcurrentCountersAtomicity(t *testing.T) {
	const nodes = 4
	const perNode = 25
	tc := newTestCluster(t, nodes, nil, nil)
	ctx := context.Background()
	if err := tc.rts[0].CreateRoot(ctx, "cnt", &box{N: 0}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(rt *Runtime) {
			defer wg.Done()
			for j := 0; j < perNode; j++ {
				err := rt.Atomic(ctx, "inc", func(tx *Txn) error {
					return tx.Update(ctx, "cnt", func(v object.Value) object.Value {
						v.(*box).N++
						return v
					})
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(tc.rts[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var got int64
	if err := tc.rts[1].Atomic(ctx, "read", func(tx *Txn) error {
		v, err := tx.Read(ctx, "cnt")
		if err != nil {
			return err
		}
		got = v.(*box).N
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != nodes*perNode {
		t.Fatalf("counter = %d, want %d (lost updates)", got, nodes*perNode)
	}
}

func TestTransferInvariant(t *testing.T) {
	const nodes = 3
	tc := newTestCluster(t, nodes, transport.UniformLatency(100*time.Microsecond), nil)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		owner := tc.rts[i%nodes]
		if err := owner.CreateRoot(ctx, object.ID(fmt.Sprintf("acct/%d", i)), &box{N: 100}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(rt *Runtime, seed int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				from := object.ID(fmt.Sprintf("acct/%d", (seed+j)%6))
				to := object.ID(fmt.Sprintf("acct/%d", (seed+j+1)%6))
				_ = rt.Atomic(ctx, "xfer", func(tx *Txn) error {
					if err := tx.Update(ctx, from, func(v object.Value) object.Value {
						v.(*box).N -= 5
						return v
					}); err != nil {
						return err
					}
					return tx.Update(ctx, to, func(v object.Value) object.Value {
						v.(*box).N += 5
						return v
					})
				})
			}
		}(tc.rts[n], n*2)
	}
	wg.Wait()

	var total int64
	err := tc.rts[0].Atomic(ctx, "audit", func(tx *Txn) error {
		total = 0
		for i := 0; i < 6; i++ {
			v, err := tx.Read(ctx, object.ID(fmt.Sprintf("acct/%d", i)))
			if err != nil {
				return err
			}
			total += v.(*box).N
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 600 {
		t.Fatalf("total = %d, want 600 (atomicity violated)", total)
	}
}

func TestUserErrorAbortsWithoutRetry(t *testing.T) {
	tc := newTestCluster(t, 1, nil, nil)
	rt := tc.rts[0]
	ctx := context.Background()
	if err := rt.CreateRoot(ctx, "u", &box{N: 1}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	calls := 0
	err := rt.Atomic(ctx, "fail", func(tx *Txn) error {
		calls++
		if err := tx.Write(ctx, "u", &box{N: 99}); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1 (no retry on user error)", calls)
	}
	// The write must not have taken effect.
	var got int64
	if err := rt.Atomic(ctx, "read", func(tx *Txn) error {
		v, err := tx.Read(ctx, "u")
		if err != nil {
			return err
		}
		got = v.(*box).N
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("aborted write leaked: %d", got)
	}
}

func TestContextCancellation(t *testing.T) {
	tc := newTestCluster(t, 1, nil, nil)
	rt := tc.rts[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := rt.Atomic(ctx, "c", func(tx *Txn) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}
