package main

import (
	"sync/atomic"
	"time"

	"dstm/internal/sched"
	"dstm/internal/trace"
)

// policyStats is what the scheduler decorators of one cluster count.
type policyStats struct {
	conflicts   atomic.Int64 // OnConflict calls
	conflictNs  atomic.Int64 // time inside OnConflict
	enqueues    atomic.Int64 // decisions that parked the requester
	backoffNs   atomic.Int64 // backoff granted to parked requesters
	retryDelays atomic.Int64 // RetryDelay calls
	retryNs     atomic.Int64 // stall RetryDelay imposed on aborted transactions
}

// policyCounts is a copy of policyStats at one instant.
type policyCounts struct {
	Conflicts, ConflictNs, Enqueues, BackoffNs, RetryDelays, RetryNs int64
}

func (s *policyStats) counts() policyCounts {
	return policyCounts{
		s.conflicts.Load(), s.conflictNs.Load(), s.enqueues.Load(),
		s.backoffNs.Load(), s.retryDelays.Load(), s.retryNs.Load(),
	}
}

func (a policyCounts) sub(b policyCounts) policyCounts {
	return policyCounts{
		a.Conflicts - b.Conflicts, a.ConflictNs - b.ConflictNs, a.Enqueues - b.Enqueues,
		a.BackoffNs - b.BackoffNs, a.RetryDelays - b.RetryDelays, a.RetryNs - b.RetryNs,
	}
}

// policyTap decorates a node's scheduler on a traced run: it times and
// counts the two decisions the runtime asks of it and forwards the rest.
// The runtime finds Feedback, SetTracer and QueueDepth by type assertion,
// so the decorator carries all three and passes them on when the wrapped
// policy has them.
type policyTap struct {
	sched.Policy
	stats *policyStats
}

func (p *policyTap) OnConflict(req sched.Request) sched.Decision {
	t0 := time.Now()
	d := p.Policy.OnConflict(req)
	p.stats.conflictNs.Add(int64(time.Since(t0)))
	p.stats.conflicts.Add(1)
	if d.Enqueue {
		p.stats.enqueues.Add(1)
		p.stats.backoffNs.Add(int64(d.Backoff))
	}
	return d
}

func (p *policyTap) RetryDelay(attempt int, profile string) time.Duration {
	d := p.Policy.RetryDelay(attempt, profile)
	p.stats.retryDelays.Add(1)
	p.stats.retryNs.Add(int64(d))
	return d
}

func (p *policyTap) Feedback(committed bool) {
	if f, ok := p.Policy.(interface{ Feedback(bool) }); ok {
		f.Feedback(committed)
	}
}

func (p *policyTap) SetTracer(tr *trace.Recorder) {
	if s, ok := p.Policy.(interface{ SetTracer(*trace.Recorder) }); ok {
		s.SetTracer(tr)
	}
}

func (p *policyTap) QueueDepth() int {
	if q, ok := p.Policy.(sched.QueueDepther); ok {
		return q.QueueDepth()
	}
	return 0
}
