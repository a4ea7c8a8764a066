package main

import "time"

// fabric is what joins the four nodes of a workload's cluster.
type fabric int

const (
	memnet1ms  fabric = iota // in-memory links, 1 ms one way on every link
	loopbackTC               // loopback TCP, binary codec, no injected delay
	memnetZero               // in-memory links, no delay (livelock reproduction only)
)

func (f fabric) String() string {
	switch f {
	case memnet1ms:
		return "memnet UniformLatency(1ms)"
	case loopbackTC:
		return "loopback TCP, CodecBinary"
	default:
		return "memnet ZeroLatency"
	}
}

// workload is one open-loop traffic mix of the bank application on a
// four-node cluster whose every knob is at its default.
type workload struct {
	Name            string
	Fabric          fabric
	AccountsPerNode int
	ReadFrac        float64
	Rate            float64 // offered arrivals per second, whole cluster
	Why             string
	VersusTFA       bool          // also make a traced run under TFA, for core.rts_over_tfa_p50
	WriteSlot       time.Duration // above 0, writers rotate over account classes in slots this long (picks.go)
}

// The names are fixed: later issues cite them.
var workloads = []workload{
	{"wan-read90", memnet1ms, 8, 0.90, 200,
		"low contention: the read path (directory lookup + serial retrieves per audit) does almost all the work", false, 0},
	{"wan-write90", memnet1ms, 8, 0.10, 40,
		"high contention: nested transfers, forwarding revalidation, commit rounds and RTS conflicts dominate", true, 0},
	{"wan-sparse50", memnet1ms, 64, 0.50, 150,
		"256 accounts make conflicts rare: protocol rounds per commit in the clear; the bypass workload for scheduler changes", false, 0},
	{"wan-sparse50-sat", memnet1ms, 64, 0.50, 600,
		"wan-sparse50 offered at about twice its knee with bounded admission: goodput_tps is capacity", false, 0},
	{"tcp-sparse50", loopbackTC, 64, 0.50, 250,
		"same mix with the wire on the blocking path: codec, syscalls, dispatch and allocation set latency and CPU; writers rotate so that no migration race strands an object", false, 100 * time.Millisecond},
}

// livelockRepro provokes the stale-directory livelock found while
// sizing (see README): it is run by -livelock, never as a workload.
var livelockRepro = workload{"livelock-repro", memnetZero, 8, 0.50, 1000,
	"manual reproduction of the stale-directory livelock", false, 0}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Cluster shape and driver constants shared by every workload.
const (
	nodes          = 4
	workersPerNode = 4
	queueCap       = 64 // per-node admission queue; an arrival finding it full is shed
	opDeadline     = 5 * time.Second
	drainLimit     = 5 * time.Second
	checkLimit     = 30 * time.Second
)
