// Package apps defines the common shape of the paper's six benchmark
// applications (Vacation, Bank, Linked-List, BST, RB-Tree, DHT), each
// implemented as closed-nested transactional programs over the D-STM API.
// The three integer sets (Linked-List, BST, RB-Tree) are one benchmark,
// Set, over a Layout each.
package apps

import (
	"context"
	"math/rand"

	"dstm/internal/stm"
)

// KeyPicker chooses a key index in [0, n) from rng. Benchmarks route
// every random key draw through their picker so workload skew (Zipfian,
// hot-key storms — see internal/workload) is injectable from outside;
// the default picker is uniform.
type KeyPicker func(rng *rand.Rand, n int) int

// UniformKeys is the default KeyPicker.
func UniformKeys(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	return rng.Intn(n)
}

// PickerOrUniform returns p, or UniformKeys when p is nil — the helper
// every benchmark's SetKeyPicker uses so a nil reset restores the
// default.
func PickerOrUniform(p KeyPicker) KeyPicker {
	if p == nil {
		return UniformKeys
	}
	return p
}

// Skewable is implemented by benchmarks whose key distribution can be
// replaced. SetKeyPicker must be called before the op loops start; all
// six benchmarks implement it.
type Skewable interface {
	SetKeyPicker(KeyPicker)
}

// Benchmark is one distributed application under test.
type Benchmark interface {
	// Name is the benchmark's display name ("Bank", "DHT", ...).
	Name() string

	// Setup seeds the shared objects across the cluster's runtimes
	// (paper: five to ten shared objects per node).
	Setup(ctx context.Context, rts []*stm.Runtime) error

	// Op executes one transaction on rt. read selects a read-only
	// operation (the paper's contention knob: 90 % reads = low contention,
	// 10 % = high). rng is per-worker.
	Op(ctx context.Context, rt *stm.Runtime, rng *rand.Rand, read bool) error

	// Check validates the application's global invariants after a run.
	Check(ctx context.Context, rt *stm.Runtime) error
}
