// Package bank implements the paper's Bank monetary benchmark: accounts
// spread across the cluster, write transactions performing batches of
// transfers (each transfer a closed-nested transaction), and read
// transactions auditing account subsets. The global invariant is
// conservation of money.
package bank

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"dstm/internal/apps"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/stm"
)

// InitialBalance is each account's starting balance.
const InitialBalance int64 = 1_000

// Account is the shared object: one bank account.
type Account struct {
	Balance int64
}

// Copy implements object.Value.
func (a *Account) Copy() object.Value { c := *a; return &c }

// Options configures the benchmark.
type Options struct {
	// AccountsPerNode is the number of accounts seeded at each node
	// (paper: 5–10 shared objects per node). 0 means 8.
	AccountsPerNode int
	// MaxNested bounds the random number of nested transfers per write
	// transaction. 0 means 4.
	MaxNested int
	// AuditSpan is how many accounts a read transaction sums. 0 means 4.
	AuditSpan int
}

// Bank is the benchmark instance.
type Bank struct {
	opts     Options
	accounts int
	pick     apps.KeyPicker
}

// New returns a Bank benchmark.
func New(opts Options) *Bank {
	if opts.AccountsPerNode <= 0 {
		opts.AccountsPerNode = 8
	}
	if opts.MaxNested <= 0 {
		opts.MaxNested = 4
	}
	if opts.AuditSpan <= 0 {
		opts.AuditSpan = 4
	}
	return &Bank{opts: opts, pick: apps.UniformKeys}
}

// SetKeyPicker implements apps.Benchmark: account choice for transfers and
// audits goes through p.
func (b *Bank) SetKeyPicker(p apps.KeyPicker) { b.pick = apps.PickerOrUniform(p) }

// Name implements apps.Benchmark.
func (b *Bank) Name() string { return "Bank" }

// AccountID returns the object ID of account i.
func AccountID(i int) object.ID { return object.ID("bank/acct/" + strconv.Itoa(i)) }

// Setup implements apps.Benchmark: account i lives on node i mod N.
func (b *Bank) Setup(ctx context.Context, rts []*stm.Runtime) error {
	b.accounts = b.opts.AccountsPerNode * len(rts)
	ids := make([]object.ID, b.accounts)
	vals := make([]object.Value, b.accounts)
	for i := range ids {
		ids[i], vals[i] = AccountID(i), &Account{Balance: InitialBalance}
	}
	return apps.Seed(ctx, rts, ids, vals)
}

// Accounts returns the number of seeded accounts.
func (b *Bank) Accounts() int { return b.accounts }

// Op implements apps.Benchmark.
func (b *Bank) Op(ctx context.Context, rt *stm.Runtime, rng *rand.Rand, read bool) error {
	if read {
		return b.audit(ctx, rt, rng)
	}
	return b.batchTransfer(ctx, rt, rng)
}

// batchTransfer is the write transaction: a parent enclosing a random
// number of nested transfers, composing independently atomic transfers
// into one larger atomic action.
func (b *Bank) batchTransfer(ctx context.Context, rt *stm.Runtime, rng *rand.Rand) error {
	n := 1 + rng.Intn(b.opts.MaxNested)
	transfers := make([][2]int, n)
	accts := make([]object.ID, 0, 2*n)
	for i := range transfers {
		from := b.pick(rng, b.accounts)
		to := b.pick(rng, b.accounts)
		for to == from {
			to = (to + 1) % b.accounts
		}
		transfers[i] = [2]int{from, to}
		accts = append(accts, AccountID(from), AccountID(to))
	}
	const amount = 7
	return rt.Atomic(ctx, "bank/batch", func(tx *stm.Txn) error {
		// Every account is picked already: the transfers' retrieves overlap.
		tx.Prefetch(ctx, accts, sched.Write)
		for _, t := range transfers {
			from, to := AccountID(t[0]), AccountID(t[1])
			if err := tx.Atomic(ctx, "bank/transfer", func(c *stm.Txn) error {
				// Open the access set in one wave, then update.
				if _, err := c.ReadMany(ctx, []object.ID{from, to}); err != nil {
					return err
				}
				if err := c.Update(ctx, from, func(v object.Value) object.Value {
					v.(*Account).Balance -= amount
					return v
				}); err != nil {
					return err
				}
				return c.Update(ctx, to, func(v object.Value) object.Value {
					v.(*Account).Balance += amount
					return v
				})
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

// audit is the read transaction: sum a window of accounts in one bulk read.
func (b *Bank) audit(ctx context.Context, rt *stm.Runtime, rng *rand.Rand) error {
	start := b.pick(rng, b.accounts)
	span := b.opts.AuditSpan
	oids := make([]object.ID, span)
	for i := range oids {
		oids[i] = AccountID((start + i) % b.accounts)
	}
	return rt.Atomic(ctx, "bank/audit", func(tx *stm.Txn) error {
		vals, err := tx.ReadMany(ctx, oids)
		if err != nil {
			return err
		}
		var sum int64
		for _, v := range vals {
			sum += v.(*Account).Balance
		}
		_ = sum
		return nil
	})
}

// TotalBalance sums every account in one transaction, with one bulk read.
func (b *Bank) TotalBalance(ctx context.Context, rt *stm.Runtime) (int64, error) {
	oids := make([]object.ID, b.accounts)
	for i := range oids {
		oids[i] = AccountID(i)
	}
	var total int64
	err := rt.Atomic(ctx, "bank/total", func(tx *stm.Txn) error {
		vals, err := tx.ReadMany(ctx, oids)
		if err != nil {
			return err
		}
		total = 0
		for _, v := range vals {
			total += v.(*Account).Balance
		}
		return nil
	})
	return total, err
}

// Check implements apps.Benchmark: money is conserved.
func (b *Bank) Check(ctx context.Context, rt *stm.Runtime) error {
	total, err := b.TotalBalance(ctx, rt)
	if err != nil {
		return err
	}
	want := int64(b.accounts) * InitialBalance
	if total != want {
		return fmt.Errorf("bank: total balance %d, want %d (money not conserved)", total, want)
	}
	return nil
}
