package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dstm/internal/apps/bank"
	"dstm/internal/transport"
)

// verdict is the outcome of checking a run's outputs.
type verdict struct {
	Accounts     int
	MultiOwner   int     // accounts held by more than one store
	Orphans      int     // accounts held by no store
	OwnerMaxFrac float64 // largest share of accounts in one store
	Stale        int     // accounts whose home directory names a node that does not hold them
	StaleSample  string  // first stale account, for the report
	Total        int64   // sum of balances read from the owning stores
	CheckErr     error   // the application's own transactional check, when run
}

// ok reports whether the outputs are correct. A stale directory entry is
// not an output error: the money is where the stores say it is, and the
// operations the entry starved already count as failed.
func (v verdict) ok() bool {
	return v.MultiOwner == 0 && v.Orphans == 0 && v.conserved() && v.CheckErr == nil
}

func (v verdict) conserved() bool { return v.Total == int64(v.Accounts)*bank.InitialBalance }

func (v verdict) String() string {
	s := fmt.Sprintf("accounts=%d total=%d multi_owner=%d orphans=%d stale=%d",
		v.Accounts, v.Total, v.MultiOwner, v.Orphans, v.Stale)
	if v.StaleSample != "" {
		s += " (" + v.StaleSample + ")"
	}
	if v.CheckErr != nil {
		s += " check: " + v.CheckErr.Error()
	}
	return s
}

// verify checks a quiesced cluster without trusting the directory: every
// account must sit in exactly one node's store, the balances in those
// stores must conserve money, and a fresh home lookup from a node that
// does not hold the account must name the store that does. The bank's
// own Check — one transaction reading every account through the
// directory — runs only when no entry is stale, since it would spin on
// one that is.
func verify(tb *testbed, b *bank.Bank) verdict {
	v := verdict{Accounts: b.Accounts()}
	owner := make([]int, v.Accounts)
	perStore := make([]int, nodes)
	for i := range owner {
		id := bank.AccountID(i)
		owner[i] = -1
		held := 0
		for n, rt := range tb.rts {
			if val, _, _, ok := rt.Store().Snapshot(id); ok {
				held++
				owner[i] = n
				perStore[n]++
				v.Total += val.(*bank.Account).Balance
			}
		}
		switch {
		case held == 0:
			v.Orphans++
		case held > 1:
			v.MultiOwner++
		}
	}
	for _, c := range perStore {
		if f := float64(c) / float64(v.Accounts); f > v.OwnerMaxFrac {
			v.OwnerMaxFrac = f
		}
	}

	// Directory agreement, asked from the owner's neighbour. The lookups
	// wait on link delay, so they go out sixteen at a time.
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, nodes*workersPerNode)
	)
	for i, own := range owner {
		if own < 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i, own int) {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			id := bank.AccountID(i)
			got, err := tb.rts[(own+1)%nodes].Locator().Relocate(ctx, id)
			if err == nil && got == transport.NodeID(own) {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			v.Stale++
			if v.StaleSample == "" {
				v.StaleSample = fmt.Sprintf("%s: directory says node %d (err %v), node %d's store owns it", id, got, err, own)
			}
		}(i, own)
	}
	wg.Wait()

	if v.Stale == 0 && v.Orphans == 0 {
		ctx, cancel := context.WithTimeout(context.Background(), checkLimit)
		v.CheckErr = b.Check(ctx, tb.rts[0])
		cancel()
	}
	return v
}
