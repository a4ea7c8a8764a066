package transport

import (
	"sync"
	"sync/atomic"
	"time"
)

// FaultConfig parameterises a FaultModel. All probabilities are in [0, 1]
// and are evaluated independently per message from a deterministic,
// seed-derived stream, so a run is exactly reproducible from its seed.
type FaultConfig struct {
	// Seed selects the deterministic fault stream. Two models with the
	// same seed and config make identical decisions for identical
	// per-link message sequences.
	Seed uint64
	// Drop is the probability a message is lost (no copy delivered).
	Drop float64
	// Duplicate is the probability a second copy of a delivered message
	// is injected, arriving out of FIFO order after an extra delay.
	Duplicate float64
	// Reorder is the probability a delivered message escapes its link's
	// FIFO order, arriving after an extra delay while later messages
	// overtake it.
	Reorder float64
	// MaxExtraDelay bounds the extra delay charged to reordered and
	// duplicated copies. 0 means 2 ms.
	MaxExtraDelay time.Duration
}

// DefaultMaxExtraDelay is the MaxExtraDelay used when the config leaves it
// zero.
const DefaultMaxExtraDelay = 2 * time.Millisecond

// Outcome is the fault model's verdict on one message.
type Outcome struct {
	// Drop true means no copy is delivered.
	Drop bool
	// Delay, when positive, delivers the primary copy out of FIFO order
	// after this extra delay (on top of the link latency).
	Delay time.Duration
	// Dup true injects a second copy, delivered out of FIFO order after
	// DupDelay extra delay.
	Dup      bool
	DupDelay time.Duration
}

// FaultStats counts the faults a model has injected.
type FaultStats struct {
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
}

// FaultModel is a deterministic, seeded fault injector for the simulated
// network: per-message drop / duplicate / reorder plus whole-node
// crash/restart. Install it on a Network with
// SetFaults. All methods are safe for concurrent use.
//
// A "crashed" node is modelled as fully disconnected: every message to or
// from it is lost while it is down (fail-stop with its in-memory state
// surviving — a network-equivalent of a crash/restart for protocols whose
// volatile state is the conversation itself). Self-sends are never faulted:
// a node's local delivery does not cross the network.
type FaultModel struct {
	cfg FaultConfig

	mu   sync.Mutex
	seq  map[uint64]uint64 // per-directed-link message counters
	down map[NodeID]bool   // crashed nodes

	dropped    atomic.Uint64
	duplicated atomic.Uint64
	reordered  atomic.Uint64
}

// NewFaultModel builds a model from cfg.
func NewFaultModel(cfg FaultConfig) *FaultModel {
	if cfg.MaxExtraDelay <= 0 {
		cfg.MaxExtraDelay = DefaultMaxExtraDelay
	}
	return &FaultModel{
		cfg:  cfg,
		seq:  make(map[uint64]uint64),
		down: make(map[NodeID]bool),
	}
}

func linkKey(from, to NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// u01 maps a hash to [0, 1).
func u01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Decide returns the fate of the next message on the from→to link. It is
// deterministic: the n-th call for a given directed link always returns the
// same outcome for the same seed and config.
func (f *FaultModel) Decide(from, to NodeID) Outcome {
	if from == to {
		return Outcome{}
	}
	key := linkKey(from, to)

	f.mu.Lock()
	if f.down[from] || f.down[to] {
		f.mu.Unlock()
		f.dropped.Add(1)
		return Outcome{Drop: true}
	}
	f.seq[key]++
	seq := f.seq[key]
	f.mu.Unlock()

	h := splitmix64(f.cfg.Seed ^ key*0x9e3779b97f4a7c15 ^ seq*0xbf58476d1ce4e5b9)
	var out Outcome
	if u01(h) < f.cfg.Drop {
		f.dropped.Add(1)
		return Outcome{Drop: true}
	}
	h = splitmix64(h)
	if u01(h) < f.cfg.Reorder {
		h = splitmix64(h)
		out.Delay = time.Duration(1 + uint64(float64(f.cfg.MaxExtraDelay)*u01(h)))
		f.reordered.Add(1)
	}
	h = splitmix64(h)
	if u01(h) < f.cfg.Duplicate {
		h = splitmix64(h)
		out.Dup = true
		out.DupDelay = time.Duration(1 + uint64(float64(f.cfg.MaxExtraDelay)*u01(h)))
		f.duplicated.Add(1)
	}
	return out
}

// Crash disconnects node n entirely: every message to or from it is lost
// until Restart.
func (f *FaultModel) Crash(n NodeID) {
	f.mu.Lock()
	f.down[n] = true
	f.mu.Unlock()
}

// Restart reconnects a crashed node. Messages lost while it was down stay
// lost; new traffic flows normally.
func (f *FaultModel) Restart(n NodeID) {
	f.mu.Lock()
	delete(f.down, n)
	f.mu.Unlock()
}

// Stats returns the model's injected-fault counters.
func (f *FaultModel) Stats() FaultStats {
	return FaultStats{
		Dropped:    f.dropped.Load(),
		Duplicated: f.duplicated.Load(),
		Reordered:  f.reordered.Load(),
	}
}
