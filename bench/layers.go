package main

import (
	"dstm/internal/stm"
	"dstm/internal/transport"
)

// kindClass maps each protocol message kind to the per-layer metric that
// counts it. The numbers are the wire protocol's (cc takes 1–6, stm
// 10–21); a kind the table does not know lands in
// cluster.other_msgs_per_op, so the per-kind metrics always sum to
// msgs_per_op.
var kindClass = map[transport.Kind]string{
	1: "cc.lookup", 4: "cc.lookup",
	2: "cc.update", 3: "cc.update", 5: "cc.update", 6: "cc.update",
	10: "stm.retrieve",
	11: "stm.validate", 18: "stm.validate",
	12: "stm.acquire", 17: "stm.acquire",
	13: "stm.release",
	14: "stm.publish", 19: "stm.publish",
	15: "core.push",
	16: "core.decline",
	20: "stm.snapshot", 21: "stm.snapshot",
}

// msgClasses lists kindClass's values in report order.
var msgClasses = []string{
	"cc.lookup", "cc.update",
	"stm.retrieve", "stm.validate", "stm.acquire", "stm.publish", "stm.release", "stm.snapshot",
	"core.push", "core.decline", "cluster.other",
}

// waitClass groups rpc spans into the blocking steps of a transaction.
func waitClass(k transport.Kind) string {
	switch kindClass[k] {
	case "cc.lookup", "cc.update":
		return "cc.wait_ms_per_op"
	case "stm.retrieve":
		return "stm.retrieve_wait_ms_per_op"
	case "stm.validate":
		return "stm.validate_wait_ms_per_op"
	case "stm.acquire", "stm.publish", "stm.release":
		return "stm.commit_wait_ms_per_op"
	}
	return ""
}

// abortCauses are the root-abort causes reported per commit.
var abortCauses = []stm.AbortCause{
	stm.AbortDenied, stm.AbortQueueTimeout, stm.AbortValidation, stm.AbortLockFailed, stm.AbortSnapshot,
}

// perLayer computes the per-layer metrics of a traced run. timed is the
// untraced run of the same workload and seed the tracing overhead is
// measured against; rtsOverTFA is 0 where the comparison is not run.
// Counts are taken between the window's edges and divided by the
// operations that finished between them.
func (r *runResult) perLayer(timed *runResult, rtsOverTFA float64) metrics {
	m := metrics{}
	ops := r.finished()
	fops := float64(ops)
	perOp := func(name, unit string, total float64) { m.set(name, unit, ratio(total, fops), ops) }

	// Messages by kind, and the rpc spans that started inside the window.
	tap := r.End.Tap.sub(r.Begin.Tap)
	byClass := map[string]float64{}
	for k, n := range tap.ByKind {
		class, ok := kindClass[transport.Kind(k)]
		if !ok {
			class = "cluster.other"
		}
		byClass[class] += float64(n)
	}
	for _, class := range msgClasses {
		perOp(class+"_msgs_per_op", "msgs/op", byClass[class])
	}
	perOp("cluster.self_msgs_per_op", "msgs/op", float64(tap.Self))
	var (
		rtts, oneway      []float64
		waitAll, serveAll float64
		waitBy            = map[string]float64{}
		rpcs, retransmits int
	)
	for i := range r.Spans {
		s := &r.Spans[i]
		if s.ReqSent < r.Begin.At || s.ReqSent > r.End.At {
			continue
		}
		rpcs++
		retransmits += s.Retransmits
		if !s.answered() {
			continue
		}
		rtt := ms(s.rtt())
		rtts = append(rtts, rtt)
		waitAll += rtt
		serveAll += ms(s.serve())
		waitBy[waitClass(s.Kind)] += rtt
		if s.ReqDelivered != 0 {
			oneway = append(oneway, ms(s.ReqDelivered-s.ReqSent))
		}
		if s.ReplySent != 0 {
			oneway = append(oneway, ms(s.ReplyDelivered-s.ReplySent))
		}
	}

	// transport
	m.set("transport.oneway_ms_p50", "ms", median(oneway), len(oneway))
	wire := r.End.Wire
	wire.BytesSent -= r.Begin.Wire.BytesSent
	wire.Writes -= r.Begin.Wire.Writes
	wire.MsgsSent -= r.Begin.Wire.MsgsSent
	perOp("transport.bytes_per_op", "B/op", float64(wire.BytesSent))
	perOp("transport.writes_per_op", "1/op", float64(wire.Writes))
	m.set("transport.msgs_per_write", "msgs", ratio(float64(wire.MsgsSent), float64(wire.Writes)), int(wire.Writes))

	// cluster
	perOp("cluster.rpcs_per_op", "1/op", float64(rpcs))
	perOp("cluster.rpc_wait_ms_per_op", "ms/op", waitAll)
	perOp("cluster.serve_ms_per_op", "ms/op", serveAll)
	m.set("cluster.rpc_rtt_ms_p50", "ms", quantile(rtts, 0.50), len(rtts))
	m.set("cluster.rpc_rtt_ms_p95", "ms", quantile(rtts, 0.95), len(rtts))
	perOp("cluster.retransmits_per_op", "1/op", float64(retransmits))
	m.set("cluster.unanswered_rpcs", "count", float64(r.Unanswered), len(r.Spans))

	// cc, and the stm waits
	for _, name := range []string{"cc.wait_ms_per_op", "stm.retrieve_wait_ms_per_op",
		"stm.validate_wait_ms_per_op", "stm.commit_wait_ms_per_op"} {
		perOp(name, "ms/op", waitBy[name])
	}
	// Stale directory entries are counted after both runs: either may strand one.
	m.set("cc.stale_entries", "count", float64(timed.Verdict.Stale+r.Verdict.Stale), r.Verdict.Accounts)

	// stm: the runtime's own counters over the window
	st := r.End.STM
	st.Sub(r.Begin.STM)
	commits := float64(st.Commits)
	perCommit := func(name, unit string, total float64) { m.set(name, unit, ratio(total, commits), int(st.Commits)) }
	perCommit("stm.attempts_per_commit", "1/commit", commits+float64(st.TotalAborts()))
	var wastedNs float64
	for _, c := range abortCauses {
		perCommit("stm.aborts_per_commit."+c.String(), "1/commit", float64(st.Aborts[c]))
		wastedNs += float64(st.Latency[c.String()].SumNs)
	}
	perOp("stm.wasted_attempt_ms_per_op", "ms/op", wastedNs/1e6)
	perCommit("stm.commit_msgs_per_commit", "msgs", float64(st.CommitMsgs))
	perCommit("stm.commit_rounds_per_commit", "rounds", float64(st.CommitRounds))
	perCommit("stm.nested_commits_per_commit", "1/commit", float64(st.NestedCommits))
	m.set("stm.nested_parent_abort_frac", "ratio", st.NestedAbortRate(), int(st.NestedOwn+st.NestedParent))
	m.set("stm.read_msgs_per_ro_commit", "msgs", st.ReadMsgsPerROCommit(), int(st.ReadOnlyCommits))

	// core and sched: the scheduler tap
	pc := r.End.Policy.sub(r.Begin.Policy)
	perOp("core.conflicts_per_op", "1/op", float64(pc.Conflicts))
	m.set("core.enqueue_frac", "ratio", ratio(float64(pc.Enqueues), float64(pc.Conflicts)), int(pc.Conflicts))
	m.set("core.handoff_win_frac", "ratio", ratio(float64(st.Pushes), float64(st.Enqueues)), int(st.Enqueues))
	m.set("core.backoff_ms_mean", "ms", ratio(float64(pc.BackoffNs)/1e6, float64(pc.Enqueues)), int(pc.Enqueues))
	m.set("core.onconflict_us_mean", "us", ratio(float64(pc.ConflictNs)/1e3, float64(pc.Conflicts)), int(pc.Conflicts))
	m.set("core.queue_depth_max", "count", float64(r.DepthMax), 1)
	m.set("core.rts_over_tfa_p50", "ratio", rtsOverTFA, 1)
	perOp("sched.retry_delay_ms_per_op", "ms/op", float64(pc.RetryNs)/1e6)

	// object: where the accounts ended up
	m.set("object.owner_max_frac", "ratio", r.Verdict.OwnerMaxFrac, r.Verdict.Accounts)
	m.set("object.multi_owner", "count", float64(r.Verdict.MultiOwner), r.Verdict.Accounts)
	m.set("object.orphans", "count", float64(r.Verdict.Orphans), r.Verdict.Accounts)

	// driver
	var late, qwait []float64
	for _, d := range r.Drive.Lateness {
		late = append(late, ms(d))
	}
	for _, s := range r.Drive.Done {
		if s.Measured {
			qwait = append(qwait, ms(s.Start-s.Due))
		}
	}
	m.set("driver.assemble_seed_s", "s", timed.assembleSeed(), len(timed.SetupS))
	m.set("driver.lateness_ms_p99", "ms", quantile(late, 0.99), len(late))
	m.set("driver.queue_wait_ms_p50", "ms", median(qwait), len(qwait))
	m.set("driver.shed", "count", float64(r.Drive.Shed), r.Drive.Admitted+r.Drive.Shed)
	m.set("driver.failed_frac", "ratio", ratio(float64(r.failed()), float64(r.Drive.Admitted)), r.Drive.Admitted)
	// The end-to-end metrics too unsteady to carry a bound ride along
	// here, from the untraced run.
	te := timed.endToEnd()
	for _, d := range endToEnd {
		if !d.gated() {
			m["driver."+d.Name] = te[d.Name]
		}
	}

	// proc
	perOp("proc.allocs_per_op", "1/op", float64(r.End.Mallocs-r.Begin.Mallocs))
	perOp("proc.alloc_kb_per_op", "KiB/op", float64(r.End.Bytes-r.Begin.Bytes)/1024)
	m.set("proc.cpu_cores_busy", "cores", ratio((r.End.CPU-r.Begin.CPU).Seconds(), r.window().Seconds()), 1)
	m.set("proc.goroutines_max", "count", float64(r.GoroutMax), 1)

	// trace: what switching the recorder and the taps on costs
	re := r.endToEnd()
	m.set("trace.overhead_p50_frac", "ratio", ratio(re["op_p50_ms"].Value, te["op_p50_ms"].Value)-1, re["op_p50_ms"].N)
	m.set("trace.overhead_cpu_frac", "ratio", ratio(re["cpu_ms_per_op"].Value, te["cpu_ms_per_op"].Value)-1, ops)
	perOp("trace.events_per_op", "1/op", float64(r.End.Events-r.Begin.Events))
	m.set("trace.dropped", "count", float64(r.Dropped), 1)
	oracle := 1.0
	if r.OracleErr != nil {
		oracle = 0
	}
	m.set("trace.oracle_ok", "bool", oracle, 1)
	return m
}
