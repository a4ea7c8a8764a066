package main

import (
	"math/rand"
	"sync"
	"time"
)

// Rotating writers. At HEAD two nodes that migrate one object in quick
// succession can leave its home directory naming the first of them for
// good (README, finding 3), and every later operation on the object
// spins to its deadline. Over loopback TCP, even at 64 accounts per node
// and 250 /s, that happened in one 15 s run of twenty, too often for a
// workload on which no operation may fail. A workload with a WriteSlot
// therefore keeps the writers of an account apart in time: the accounts
// fall into writeClasses classes (account mod writeClasses), and in each
// slot of the schedule a node's transfers stay inside the one class that
// is the node's for that slot. The classes rotate so that a class one
// node writes in slot s is nobody's in slot s+1 and another node's in
// slot s+2. Two nodes never write the same account less than a slot
// apart, while most transfers still fetch their accounts from the node
// that wrote them last. Audits read anywhere.

const (
	writeClasses = 2 * nodes
	anyClass     = -1
)

// writeClass is the class node's transfers due at due stay in. Class c
// is node k's in slot s when c ≡ 2k+s (mod 2·nodes): for a given class
// that has a solution in every second slot only, and the solution moves
// on a node each time.
func writeClass(node int, due, slot time.Duration) int {
	return (2*node + int(due/slot)) % writeClasses
}

// classPicker is the apps.KeyPicker of a workload with rotating writers.
// The bank hands its picker only the operation's generator, so the
// driver registers each write's class under that generator for the time
// the operation runs.
type classPicker struct {
	mu  sync.Mutex
	ops map[*rand.Rand]*classPicks
}

type classPicks struct{ class, last int }

func newClassPicker() *classPicker { return &classPicker{ops: map[*rand.Rand]*classPicks{}} }

func (p *classPicker) begin(rng *rand.Rand, class int) {
	p.mu.Lock()
	p.ops[rng] = &classPicks{class: class, last: -1}
	p.mu.Unlock()
}

func (p *classPicker) end(rng *rand.Rand) {
	p.mu.Lock()
	delete(p.ops, rng)
	p.mu.Unlock()
}

// pick draws uniformly from the operation's class, never the account it
// drew last: the bank resolves a transfer from an account to itself by
// taking the next account, which belongs to another class.
func (p *classPicker) pick(rng *rand.Rand, n int) int {
	p.mu.Lock()
	op := p.ops[rng]
	p.mu.Unlock()
	if op == nil { // an audit
		return rng.Intn(n)
	}
	for {
		a := rng.Intn(n/writeClasses)*writeClasses + op.class
		if a != op.last {
			op.last = a
			return a
		}
	}
}
