package vacation

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"dstm/internal/object"
	"dstm/internal/stm"
	"dstm/internal/testutil"
)

func setupVac(t *testing.T, nodes int, opts Options) (*Vacation, []*stm.Runtime) {
	t.Helper()
	rts := testutil.Cluster(t, nodes)
	v := New(opts)
	if err := v.Setup(context.Background(), rts); err != nil {
		t.Fatal(err)
	}
	return v, rts
}

func TestReservationClaimsInventory(t *testing.T) {
	v, rts := setupVac(t, 2, Options{ResourcesPerKindPerNode: 2, CustomersPerNode: 1})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))

	for i := 0; i < 10; i++ {
		if err := v.MakeReservation(ctx, rts[i%2], rng, i%v.customers); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Check(ctx, rts[0]); err != nil {
		t.Fatal(err)
	}
	// Someone must actually hold reservations.
	var held int
	err := rts[0].Atomic(ctx, "count", func(tx *stm.Txn) error {
		held = 0
		for i := 0; i < v.customers; i++ {
			val, err := tx.Read(ctx, CustomerID(i))
			if err != nil {
				return err
			}
			held += len(val.(*Customer).Reservations)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if held == 0 {
		t.Fatal("10 reservation transactions booked nothing")
	}
}

func TestCancelReleasesEverything(t *testing.T) {
	v, rts := setupVac(t, 2, Options{ResourcesPerKindPerNode: 2, CustomersPerNode: 1})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2))

	for i := 0; i < 6; i++ {
		if err := v.MakeReservation(ctx, rts[0], rng, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.CancelCustomer(ctx, rts[1], 0); err != nil {
		t.Fatal(err)
	}
	// All inventory restored for customer 0's bookings; invariant holds.
	if err := v.Check(ctx, rts[0]); err != nil {
		t.Fatal(err)
	}
	err := rts[0].Atomic(ctx, "verify", func(tx *stm.Txn) error {
		val, err := tx.Read(ctx, CustomerID(0))
		if err != nil {
			return err
		}
		if n := len(val.(*Customer).Reservations); n != 0 {
			t.Fatalf("customer still holds %d reservations", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedOpsKeepInvariant(t *testing.T) {
	const nodes = 3
	v, rts := setupVac(t, nodes, Options{ResourcesPerKindPerNode: 2, CustomersPerNode: 2, UnitsPerResource: 20})
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + n)))
			for i := 0; i < 15; i++ {
				if err := v.Op(ctx, rts[n], rng, i%4 == 0); err != nil {
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
	if err := v.Check(ctx, rts[0]); err != nil {
		t.Fatal(err)
	}
}

func TestAvailabilityNeverNegative(t *testing.T) {
	// Tiny inventory, many reservations: availability must clamp at 0
	// (reservation skips the kind), never go negative.
	v, rts := setupVac(t, 2, Options{ResourcesPerKindPerNode: 1, CustomersPerNode: 1, UnitsPerResource: 2, ScanSpan: 2})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		if err := v.MakeReservation(ctx, rts[i%2], rng, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Check(ctx, rts[0]); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsAndNames(t *testing.T) {
	v := New(Options{})
	if v.opts.ResourcesPerKindPerNode <= 0 || v.opts.CustomersPerNode <= 0 ||
		v.opts.UnitsPerResource <= 0 || v.opts.ScanSpan <= 0 {
		t.Fatalf("defaults: %+v", v.opts)
	}
	if v.Name() != "Vacation" {
		t.Fatalf("name %q", v.Name())
	}
	if Car.String() != "car" || Flight.String() != "flight" || Room.String() != "room" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() != "unknown" {
		t.Fatal("unknown kind name")
	}
}

// TestSkewedReadsAndWritesShareHotSet pins the read/write key correlation:
// with a degenerate picker (always rank 0), BOTH the read op (query) and
// the price-update write op draw kind AND index through the picker, so the
// whole workload concentrates on the single hot object ResourceID(0, 0).
// Before the fix the kind was drawn uniformly, decorrelating the read and
// write hot sets under skew.
func TestSkewedReadsAndWritesShareHotSet(t *testing.T) {
	v, rts := setupVac(t, 2, Options{ResourcesPerKindPerNode: 2, CustomersPerNode: 1, ScanSpan: 1})
	v.SetKeyPicker(func(rng *rand.Rand, n int) int { return 0 })
	ctx := context.Background()

	// Record every seeded price, hammer price updates, then diff: only the
	// hot entry may change.
	readPrice := func(k Kind, i int) int64 {
		t.Helper()
		var price int64
		if err := rts[0].Atomic(ctx, "p", func(tx *stm.Txn) error {
			val, err := tx.Read(ctx, ResourceID(k, i))
			if err != nil {
				return err
			}
			price = val.(*Resource).Price
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return price
	}
	seeded := make(map[object.ID]int64)
	for k := Kind(0); k < numKinds; k++ {
		for i := 0; i < v.resources; i++ {
			seeded[ResourceID(k, i)] = readPrice(k, i)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		if err := v.updateTables(ctx, rts[i%2], rng); err != nil {
			t.Fatal(err)
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		for i := 0; i < v.resources; i++ {
			if k == 0 && i == 0 {
				continue // the hot entry: updates allowed
			}
			if got := readPrice(k, i); got != seeded[ResourceID(k, i)] {
				t.Fatalf("cold entry %s price changed %d -> %d — writes escaped the hot set",
					ResourceID(k, i), seeded[ResourceID(k, i)], got)
			}
		}
	}

	// The read op draws through the same picker: count picker calls per
	// query and confirm determinism of the drawn targets across reruns.
	var calls int
	v.SetKeyPicker(func(rng *rand.Rand, n int) int { calls++; return 0 })
	if err := v.query(ctx, rts[0], rand.New(rand.NewSource(9))); err != nil {
		t.Fatal(err)
	}
	if calls != 3 { // customer, kind, offset — kind MUST go through the picker
		t.Fatalf("query made %d picker draws, want 3 (customer, kind, offset)", calls)
	}
}

// TestSkewDeterminism pins that a fixed seed yields an identical pick
// sequence for the mixed op stream — the harness relies on this for
// reproducible skewed cells.
func TestSkewDeterminism(t *testing.T) {
	run := func() []int {
		v, rts := setupVac(t, 1, Options{ResourcesPerKindPerNode: 2, CustomersPerNode: 2, ScanSpan: 1})
		var picks []int
		v.SetKeyPicker(func(rng *rand.Rand, n int) int {
			p := rng.Intn(n)
			picks = append(picks, p)
			return p
		})
		ctx := context.Background()
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 15; i++ {
			if err := v.Op(ctx, rts[0], rng, i%3 == 0); err != nil {
				t.Fatal(err)
			}
		}
		return picks
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("pick streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}
