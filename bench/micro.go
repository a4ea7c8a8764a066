package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"dstm/internal/apps/bank"
	"dstm/internal/cluster"
	"dstm/internal/core"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/stm"
	"dstm/internal/transport"
	"dstm/internal/vclock"
	"dstm/internal/wire"
)

// timeLoop calls fn from one goroutine, in doubling batches, for about
// budget, and returns the mean time and heap allocations per call.
func timeLoop(budget time.Duration, fn func()) (nsPerOp, allocsPerOp float64, n int) {
	fn() // first-call set-up (dials, map growth) stays out of the mean
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for batch := 1; time.Since(t0) < budget; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), n
}

// echoKind is outside every protocol range.
const echoKind transport.Kind = 200

// echoRTT times cluster.Endpoint.Call against an echo handler on a
// second endpoint, over the two given transports.
func echoRTT(budget time.Duration, a, b transport.Transport) (nsPerOp float64, n int, err error) {
	client := cluster.NewEndpoint(a, &vclock.Clock{})
	server := cluster.NewEndpoint(b, &vclock.Clock{})
	server.Handle(echoKind, func(_ transport.NodeID, p any) (any, error) { return p, nil })
	ctx := context.Background()
	payload := &bank.Account{Balance: 1}
	nsPerOp, _, n = timeLoop(budget, func() {
		if _, e := client.Call(ctx, b.Self(), echoKind, payload); e != nil && err == nil {
			err = e
		}
	})
	return nsPerOp, n, err
}

// micro runs the layer micro-timings: each a single-goroutine loop over
// one layer's public functions, giving the unit cost the per-layer
// counts of the workloads multiply. budget is the time given to each.
func micro(budget time.Duration) (metrics, error) {
	m := metrics{}
	ctx := context.Background()

	// transport + cluster: one Call round trip. The 1 ms figure is the
	// timer-floor calibration every wan-* latency scales with.
	for _, c := range []struct {
		name string
		lat  transport.LatencyModel
	}{
		{"transport.memnet_rtt_ms_0", transport.ZeroLatency{}},
		{"transport.memnet_rtt_ms_1ms", transport.UniformLatency(time.Millisecond)},
	} {
		net := transport.NewNetwork(c.lat)
		ns, n, err := echoRTT(budget, net.Endpoint(0), net.Endpoint(1))
		net.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		m.set(c.name, "ms", ns/1e6, n)
	}
	{
		var tcps [2]*transport.TCPNode
		peers := map[transport.NodeID]string{}
		for i := range tcps {
			tn, err := transport.NewTCPNode(transport.NodeID(i), "127.0.0.1:0", nil)
			if err != nil {
				return nil, fmt.Errorf("transport.tcp_rtt_us: %w", err)
			}
			defer tn.Close()
			tcps[i] = tn
			peers[transport.NodeID(i)] = tn.Addr()
		}
		tcps[0].SetPeers(peers)
		tcps[1].SetPeers(peers)
		ns, n, err := echoRTT(budget, tcps[0], tcps[1])
		if err != nil {
			return nil, fmt.Errorf("transport.tcp_rtt_us: %w", err)
		}
		m.set("transport.tcp_rtt_us", "us", ns/1e3, n)
	}

	// wire: one frame carrying an 8-entry acquire batch.
	{
		msg := &transport.Message{From: 1, To: 2, Clock: 12345, Kind: 17, Corr: 99, Payload: stm.WirePumpPayload()}
		buf, err := transport.AppendMessage(nil, msg)
		if err != nil {
			return nil, fmt.Errorf("wire.msg_encode_ns: %w", err)
		}
		encNs, encAllocs, n := timeLoop(budget, func() { buf, _ = transport.AppendMessage(buf[:0], msg) })
		var out transport.Message
		r := wire.NewReader(nil)
		decNs, decAllocs, n2 := timeLoop(budget, func() {
			r.Reset(buf)
			if e := transport.DecodeMessage(r, &out); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("wire.msg_decode_ns: %w", err)
		}
		m.set("wire.msg_encode_ns", "ns", encNs, n)
		m.set("wire.msg_decode_ns", "ns", decNs, n2)
		m.set("wire.msg_bytes", "B", float64(len(buf)), 1)
		m.set("wire.msg_allocs", "count", encAllocs+decAllocs, n+n2)
	}

	// cc: a hinted Locate, and a Relocate that asks the home directory.
	{
		tb, err := newTestbed(memnetZero, 0, false)
		if err != nil {
			return nil, err
		}
		id := object.ID("micro/obj")
		if err := tb.rts[0].CreateRoot(ctx, id, &bank.Account{}); err != nil {
			tb.close()
			return nil, fmt.Errorf("cc.locate: %w", err)
		}
		loc := tb.rts[1].Locator()
		hitNs, _, n := timeLoop(budget, func() { _, err = loc.Locate(ctx, id) })
		missNs, _, n2 := timeLoop(budget, func() { _, err = loc.Relocate(ctx, id) })
		tb.close()
		if err != nil {
			return nil, fmt.Errorf("cc.locate: %w", err)
		}
		m.set("cc.locate_hit_ns", "ns", hitNs, n)
		m.set("cc.locate_miss_us", "us", missNs/1e3, n2)
	}

	// core: RTS's conflict decision and its request observer, four
	// requesters already queued on the object.
	{
		rts := core.New(core.Options{CLThreshold: 8})
		oid := object.ID("micro/hot")
		req := func(tx uint64) sched.Request {
			return sched.Request{Oid: oid, TxID: tx, Node: 1, Mode: sched.Write,
				Elapsed: time.Second, ExpectedRemaining: time.Microsecond}
		}
		for tx := uint64(1); tx <= 4; tx++ {
			rts.OnConflict(req(tx))
		}
		if rts.QueueLen(oid) != 4 {
			return nil, fmt.Errorf("core.onconflict_ns: queue depth %d, want 4", rts.QueueLen(oid))
		}
		fifth := req(5) // re-decided every call: dropped as a duplicate, then queued again
		ns, _, n := timeLoop(budget, func() { rts.OnConflict(fifth) })
		m.set("core.onconflict_ns", "ns", ns, n)
		var tx uint64
		ns, _, n = timeLoop(budget, func() { tx++; rts.ObserveRequest(oid, tx%4) })
		m.set("core.observe_ns", "ns", ns, n)
	}

	// object: an owner-side commit of four objects, and a snapshot read.
	{
		st := object.NewStore()
		entries := make([]object.LockEntry, 4)
		for i := range entries {
			entries[i].ID = object.ID(fmt.Sprintf("micro/o%d", i))
			st.Install(entries[i].ID, &bank.Account{}, object.Version{})
		}
		var clock uint64
		var err error
		ns, _, n := timeLoop(budget, func() {
			clock++
			if _, applied := st.LockBatch(clock, entries); !applied && err == nil {
				err = fmt.Errorf("lock batch refused at clock %d", clock)
			}
			next := object.Version{Clock: clock}
			for i := range entries {
				if e := st.UpdateCommitted(entries[i].ID, &bank.Account{}, next, clock); e != nil && err == nil {
					err = e
				}
				entries[i].Expect = next
			}
		})
		if err != nil {
			return nil, fmt.Errorf("object.lockbatch_commit_ns: %w", err)
		}
		m.set("object.lockbatch_commit_ns", "ns", ns, n)
		ns, _, n = timeLoop(budget, func() { st.SnapshotAt(entries[0].ID, math.MaxUint64, 1) })
		m.set("object.snapshot_at_ns", "ns", ns, n)
	}

	// stm: one local two-object update, flat and two nesting levels deep —
	// the allocations a closed-nested level costs.
	{
		net := transport.NewNetwork(nil)
		defer net.Close()
		ep := cluster.NewEndpoint(net.Endpoint(0), &vclock.Clock{})
		rt := stm.NewRuntime(ep, 1, core.New(core.Options{}), nil)
		a, b := object.ID("micro/a"), object.ID("micro/b")
		for _, id := range []object.ID{a, b} {
			if err := rt.CreateRoot(ctx, id, &bank.Account{}); err != nil {
				return nil, fmt.Errorf("stm.local_tx_us: %w", err)
			}
		}
		bump := func(v object.Value) object.Value { v.(*bank.Account).Balance++; return v }
		update := func(tx *stm.Txn) error {
			if err := tx.Update(ctx, a, bump); err != nil {
				return err
			}
			return tx.Update(ctx, b, bump)
		}
		var err error
		keep := func(e error) {
			if e != nil && err == nil {
				err = e
			}
		}
		ns, allocs, n := timeLoop(budget, func() { keep(rt.Atomic(ctx, "micro/flat", update)) })
		m.set("stm.local_tx_us", "us", ns/1e3, n)
		m.set("stm.local_tx_allocs", "count", allocs, n)
		ns, allocs, n = timeLoop(budget, func() {
			keep(rt.Atomic(ctx, "micro/nested", func(tx *stm.Txn) error {
				return tx.Atomic(ctx, "micro/l1", func(c1 *stm.Txn) error {
					return c1.Atomic(ctx, "micro/l2", update)
				})
			}))
		})
		if err != nil {
			return nil, fmt.Errorf("stm.local_tx_us: %w", err)
		}
		m.set("stm.local_nested_tx_us", "us", ns/1e3, n)
		m.set("stm.local_nested_tx_allocs", "count", allocs, n)
	}
	return m, nil
}
