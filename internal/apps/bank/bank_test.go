package bank

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dstm/internal/object"
	"dstm/internal/testutil"
	"dstm/internal/transport"
)

func TestSetupSeedsAccounts(t *testing.T) {
	rts := testutil.Cluster(t, 3)
	b := New(Options{AccountsPerNode: 4})
	ctx := context.Background()
	if err := b.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	if b.Accounts() != 12 {
		t.Fatalf("accounts = %d", b.Accounts())
	}
	total, err := b.TotalBalance(ctx, rts[0])
	if err != nil {
		t.Fatal(err)
	}
	if total != 12*InitialBalance {
		t.Fatalf("total = %d", total)
	}
	ids := make([]object.ID, b.Accounts())
	for i := range ids {
		ids[i] = AccountID(i)
	}
	owners, _, err := rts[0].Locator().AskHomes(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if want := transport.NodeID(i % len(rts)); owners[id] != want || !rts[want].Store().State(id).Owned {
			t.Fatalf("%s: home names node %d (held there: %v), want node %d", id, owners[id], rts[owners[id]].Store().State(id).Owned, want)
		}
	}
}

// TestAccountIDKeepsItsText: homes hash an account's ID, so its text is
// that of the fmt form it replaced.
func TestAccountIDKeepsItsText(t *testing.T) {
	for _, i := range []int{0, 1, 255, 1 << 20} {
		if got, want := AccountID(i), object.ID(fmt.Sprintf("bank/acct/%d", i)); got != want {
			t.Fatalf("AccountID(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestTransfersConserveMoney(t *testing.T) {
	rts := testutil.Cluster(t, 2)
	b := New(Options{AccountsPerNode: 3})
	ctx := context.Background()
	if err := b.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		if err := b.Op(ctx, rts[i%2], rng, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Check(ctx, rts[0]); err != nil {
		t.Fatal(err)
	}
}

func TestReadOpRuns(t *testing.T) {
	rts := testutil.Cluster(t, 2)
	b := New(Options{AccountsPerNode: 3})
	ctx := context.Background()
	if err := b.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		if err := b.Op(ctx, rts[i%2], rng, true); err != nil {
			t.Fatal(err)
		}
	}
	// Reads never change balances.
	if err := b.Check(ctx, rts[1]); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTransfersConserveMoney(t *testing.T) {
	const nodes = 3
	rts := testutil.Cluster(t, nodes)
	b := New(Options{AccountsPerNode: 2, MaxNested: 3})
	ctx := context.Background()
	if err := b.Setup(ctx, rts); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 15; i++ {
				if err := b.Op(ctx, rts[n], rng, i%4 == 0); err != nil {
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
	if err := b.Check(ctx, rts[0]); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsDefaults(t *testing.T) {
	b := New(Options{})
	if b.opts.AccountsPerNode <= 0 || b.opts.MaxNested <= 0 || b.opts.AuditSpan <= 0 {
		t.Fatalf("defaults not applied: %+v", b.opts)
	}
	if b.Name() != "Bank" {
		t.Fatalf("name %q", b.Name())
	}
}
