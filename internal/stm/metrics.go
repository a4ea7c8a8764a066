package stm

import (
	"sync/atomic"
	"time"
)

// AbortCause classifies why a transaction attempt aborted, feeding the
// paper's Table I (nested-abort attribution) and the throughput analyses.
type AbortCause uint8

// Abort causes.
const (
	// AbortDenied: a retrieve hit a commit-locked object and the scheduler
	// denied the request (TFA's "losing transactions abort while T2
	// validates").
	AbortDenied AbortCause = iota
	// AbortQueueTimeout: the transaction was enqueued by RTS but its
	// backoff expired before the object arrived.
	AbortQueueTimeout
	// AbortValidation: commit-time or forwarding validation found a stale
	// read (TFA's "early validation" abort).
	AbortValidation
	// AbortLockFailed: commit could not lock its write set.
	AbortLockFailed
	// AbortSnapshot is never raised (the MVCC read path is gone). Only the
	// frozen bench/layers.go names it; a benchmark PR removes it.
	AbortSnapshot
	numAbortCauses
)

func (c AbortCause) String() string {
	switch c {
	case AbortDenied:
		return "denied"
	case AbortQueueTimeout:
		return "queue-timeout"
	case AbortValidation:
		return "validation"
	case AbortLockFailed:
		return "lock-failed"
	case AbortSnapshot:
		return "snapshot"
	default:
		return "unknown"
	}
}

// AbortCauses lists every cause in declaration order, for stable reports.
func AbortCauses() []AbortCause {
	out := make([]AbortCause, 0, int(numAbortCauses))
	for c := AbortCause(0); c < numAbortCauses; c++ {
		out = append(out, c)
	}
	return out
}

// Metrics aggregates one node's transaction outcomes. All fields are
// updated atomically; read them with Snapshot.
type Metrics struct {
	commits       atomic.Uint64 // top-level commits
	aborts        [numAbortCauses]atomic.Uint64
	nestedCommits atomic.Uint64 // inner-transaction commits (merged into parents)
	nestedOwn     atomic.Uint64 // inner aborts during the inner's own run
	nestedParent  atomic.Uint64 // inner rollbacks caused by a parent abort
	enqueues      atomic.Uint64 // requests parked by the scheduler
	pushes        atomic.Uint64 // objects handed to parked requesters
	retrieves     atomic.Uint64 // object fetch RPCs issued
	retrieveWaves atomic.Uint64 // retrieve waves with at least one remote request
	remoteCopies  atomic.Uint64 // entries a remote node answered with a copy
	staleHops     atomic.Uint64 // entries a remote node answered Moved or NotOwner
	prefetched    atomic.Uint64 // copies Txn.Prefetch received
	prefOpened    atomic.Uint64 // of those, copies a transaction then opened
	leaseExpiries atomic.Uint64 // commit locks force-released by the lease reaper
	commitMsgs    atomic.Uint64 // messages sent by successful commit pipelines
	commitRounds  atomic.Uint64 // parallel batch rounds those messages formed

	readOnlyCommits atomic.Uint64 // commits that wrote nothing
	readMsgs        atomic.Uint64 // data-path read RPCs charged to those commits

	// Per-outcome attempt time: how many top-level attempts committed, or
	// aborted with each cause, and how long they ran in sum. The split shows
	// WHERE time is lost — e.g. queue-timeout aborts each burn a full
	// backoff, so their mean dwarfs denied aborts'.
	commitTime attemptTime
	abortTime  [numAbortCauses]attemptTime
}

// attemptTime counts one outcome's attempts and sums their durations.
type attemptTime struct{ n, ns atomic.Uint64 }

func (a *attemptTime) load() Latency { return Latency{N: a.n.Load(), SumNs: a.ns.Load()} }

// observeOutcome records one attempt's duration under its outcome.
func (m *Metrics) observeOutcome(committed bool, cause AbortCause, d time.Duration) {
	a := &m.commitTime
	if !committed {
		a = &m.abortTime[cause]
	}
	a.n.Add(1)
	a.ns.Add(uint64(max(d, 0)))
}

// Latency is one outcome's attempt count and summed attempt time.
type Latency struct {
	N     uint64
	SumNs uint64
}

// Count returns the number of attempts.
func (l Latency) Count() uint64 { return l.N }

// Mean returns the average attempt time (0 when there was none).
func (l Latency) Mean() time.Duration {
	if l.N == 0 {
		return 0
	}
	return time.Duration(l.SumNs / l.N)
}

// LatencyCommitKey is the Latency map key for committed attempts; aborted
// attempts are keyed by their AbortCause string.
const LatencyCommitKey = "commit"

// MetricsSnapshot is a consistent-enough copy of Metrics counters.
type MetricsSnapshot struct {
	Commits       uint64
	Aborts        map[AbortCause]uint64
	NestedCommits uint64
	NestedOwn     uint64
	NestedParent  uint64
	Enqueues      uint64
	Pushes        uint64
	// Retrieves counts retrieve requests, the locking retrieves included: a
	// commit's lock requests count here, as Prefetch(sched.Write)'s do.
	Retrieves uint64
	// RetrieveWaves counts the retrieve waves that asked at least one remote
	// node — each is a round trip on its transaction's blocking path (or a
	// prefetch's or a commit lock's). Of the entries asked of a remote node, RemoteCopies came
	// back as a copy and StaleHops as Moved or NotOwner: the owner pointer
	// was wrong, and the entry costs another wave.
	RetrieveWaves uint64
	RemoteCopies  uint64
	StaleHops     uint64
	LeaseExpiries uint64
	// CommitMsgs counts the protocol messages issued by commit pipelines
	// that reached the commit point; CommitRounds counts the parallel batch
	// waves they formed. Their ratios to Commits are the paper-facing
	// "msgs/commit" and "rounds/commit" of the owner-grouped pipeline.
	CommitMsgs   uint64
	CommitRounds uint64

	// ReadOnlyCommits counts commits whose transaction wrote nothing.
	// ReadMsgs counts the retrieves those commits issued;
	// ReadMsgs/ReadOnlyCommits is the read-path cost the benchmark reports
	// as stm.read_msgs_per_ro_commit.
	ReadOnlyCommits uint64
	ReadMsgs        uint64
	// Prefetched counts the copies Txn.Prefetch fetched ahead of their access
	// (its requests count in Retrieves), PrefetchOpened those then opened.
	Prefetched     uint64
	PrefetchOpened uint64

	// Latency maps outcome (LatencyCommitKey or an AbortCause string) to
	// that outcome's attempt count and summed attempt time.
	Latency map[string]Latency
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Commits:       m.commits.Load(),
		Aborts:        make(map[AbortCause]uint64, int(numAbortCauses)),
		NestedCommits: m.nestedCommits.Load(),
		NestedOwn:     m.nestedOwn.Load(),
		NestedParent:  m.nestedParent.Load(),
		Enqueues:      m.enqueues.Load(),
		Pushes:        m.pushes.Load(),
		Retrieves:     m.retrieves.Load(),
		RetrieveWaves: m.retrieveWaves.Load(),
		RemoteCopies:  m.remoteCopies.Load(),
		StaleHops:     m.staleHops.Load(),
		LeaseExpiries: m.leaseExpiries.Load(),
		CommitMsgs:    m.commitMsgs.Load(),
		CommitRounds:  m.commitRounds.Load(),

		ReadOnlyCommits: m.readOnlyCommits.Load(),
		ReadMsgs:        m.readMsgs.Load(),
		Prefetched:      m.prefetched.Load(),
		PrefetchOpened:  m.prefOpened.Load(),
	}
	s.Latency = make(map[string]Latency, int(numAbortCauses)+1)
	s.Latency[LatencyCommitKey] = m.commitTime.load()
	for c := AbortCause(0); c < numAbortCauses; c++ {
		s.Aborts[c] = m.aborts[c].Load()
		s.Latency[c.String()] = m.abortTime[c].load()
	}
	return s
}

// TotalAborts sums the per-cause top-level abort counters.
func (s MetricsSnapshot) TotalAborts() uint64 {
	var t uint64
	for _, v := range s.Aborts {
		t += v
	}
	return t
}

// MsgsPerCommit is the average number of commit-pipeline messages per
// successful commit — the O(k) → O(m) headline of owner-grouped batching.
// Returns 0 when nothing committed.
func (s MetricsSnapshot) MsgsPerCommit() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.CommitMsgs) / float64(s.Commits)
}

// RoundsPerCommit is the average number of parallel batch waves per
// successful commit (each wave costs one round-trip to its slowest owner).
func (s MetricsSnapshot) RoundsPerCommit() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.CommitRounds) / float64(s.Commits)
}

// ReadMsgsPerROCommit is the average number of data-path read RPCs per
// read-only commit (bench's stm.read_msgs_per_ro_commit). Returns 0 when
// nothing committed read-only.
func (s MetricsSnapshot) ReadMsgsPerROCommit() float64 {
	if s.ReadOnlyCommits == 0 {
		return 0
	}
	return float64(s.ReadMsgs) / float64(s.ReadOnlyCommits)
}

// NestedAbortRate is Table I's metric: the fraction of nested-transaction
// aborts caused by a parent's abort. Returns 0 when no nested aborts
// occurred.
func (s MetricsSnapshot) NestedAbortRate() float64 {
	total := s.NestedOwn + s.NestedParent
	if total == 0 {
		return 0
	}
	return float64(s.NestedParent) / float64(total)
}

// Merge adds other's counters into s (for cluster-wide aggregation).
func (s *MetricsSnapshot) Merge(other MetricsSnapshot) {
	s.Commits += other.Commits
	s.NestedCommits += other.NestedCommits
	s.NestedOwn += other.NestedOwn
	s.NestedParent += other.NestedParent
	s.Enqueues += other.Enqueues
	s.Pushes += other.Pushes
	s.Retrieves += other.Retrieves
	s.RetrieveWaves += other.RetrieveWaves
	s.RemoteCopies += other.RemoteCopies
	s.StaleHops += other.StaleHops
	s.Prefetched += other.Prefetched
	s.PrefetchOpened += other.PrefetchOpened
	s.LeaseExpiries += other.LeaseExpiries
	s.CommitMsgs += other.CommitMsgs
	s.CommitRounds += other.CommitRounds
	s.ReadOnlyCommits += other.ReadOnlyCommits
	s.ReadMsgs += other.ReadMsgs
	if s.Aborts == nil {
		s.Aborts = make(map[AbortCause]uint64, int(numAbortCauses))
	}
	for c, v := range other.Aborts {
		s.Aborts[c] += v
	}
	if s.Latency == nil && len(other.Latency) > 0 {
		s.Latency = make(map[string]Latency, len(other.Latency))
	}
	for k, l := range other.Latency {
		cur := s.Latency[k]
		s.Latency[k] = Latency{N: cur.N + l.N, SumNs: cur.SumNs + l.SumNs}
	}
}

// Sub removes a baseline snapshot's counters from s (saturation-free:
// callers subtract a baseline taken earlier on the same nodes, so the
// counters are monotone).
func (s *MetricsSnapshot) Sub(base MetricsSnapshot) {
	s.Commits -= base.Commits
	s.NestedCommits -= base.NestedCommits
	s.NestedOwn -= base.NestedOwn
	s.NestedParent -= base.NestedParent
	s.Enqueues -= base.Enqueues
	s.Pushes -= base.Pushes
	s.Retrieves -= base.Retrieves
	s.RetrieveWaves -= base.RetrieveWaves
	s.RemoteCopies -= base.RemoteCopies
	s.StaleHops -= base.StaleHops
	s.Prefetched -= base.Prefetched
	s.PrefetchOpened -= base.PrefetchOpened
	s.LeaseExpiries -= base.LeaseExpiries
	s.CommitMsgs -= base.CommitMsgs
	s.CommitRounds -= base.CommitRounds
	s.ReadOnlyCommits -= base.ReadOnlyCommits
	s.ReadMsgs -= base.ReadMsgs
	for c, v := range base.Aborts {
		if s.Aborts != nil {
			s.Aborts[c] -= v
		}
	}
	for k, l := range base.Latency {
		if s.Latency == nil {
			break
		}
		cur := s.Latency[k]
		s.Latency[k] = Latency{N: cur.N - l.N, SumNs: cur.SumNs - l.SumNs}
	}
}
