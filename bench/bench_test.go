package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"dstm/internal/core"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/trace"
	"dstm/internal/transport"
)

func TestQuantileNearestRank(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.95, 7},
		{[]float64{4, 1, 3, 2}, 0.5, 2},         // rank ceil(0.5·4) = 2
		{[]float64{5, 1, 4, 2, 3}, 0.5, 3},      // rank ceil(2.5) = 3
		{[]float64{5, 1, 4, 2, 3}, 0.95, 5},     // rank ceil(4.75) = 5
		{[]float64{5, 1, 4, 2, 3}, 0.2, 1},      // rank ceil(1.0) = 1
		{[]float64{5, 1, 4, 2, 3}, 0.21, 2},     // rank ceil(1.05) = 2
		{[]float64{10, 20, 30, 40}, 0, 10},      // rank clamps to 1
		{[]float64{10, 20, 30, 40}, 1, 40},      // rank n
		{seq(1, 100), 0.95, 95},                 // the 95th of 100
		{seq(1, 100), 0.99, 99},                 //
		{seq(1, 20), 0.95, 19},                  // rank ceil(19) = 19
		{seq(1, 21), 0.95, 20},                  // rank ceil(19.95) = 20
		{[]float64{2, 2, 2, 9}, 0.75, 2},        // ties
		{[]float64{0.5, 0.25, 0.75}, 0.5, 0.5},  // fractions
		{[]float64{-3, -1, -2}, 0.5, -2},        // negatives sort too
		{[]float64{1, 2, 3, 4, 5, 6}, 0.5, 3},   // even n takes the lower middle
		{[]float64{1, 2, 3, 4, 5, 6}, 0.51, 4},  //
		{[]float64{1, 2, 3, 4, 5, 6}, 0.834, 6}, // rank ceil(5.004) = 6
	}
	for _, c := range cases {
		if got := quantile(append([]float64(nil), c.xs...), c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
}

func seq(lo, hi int) []float64 {
	var out []float64
	for i := hi; i >= lo; i-- { // descending: quantile must sort
		out = append(out, float64(i))
	}
	return out
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := buildSchedule(7, 200, 0.9, time.Second, 3*time.Second, 0)
	b := buildSchedule(7, 200, 0.9, time.Second, 3*time.Second, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	c := buildSchedule(8, 200, 0.9, time.Second, 3*time.Second, 0)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 800 {
		t.Fatalf("%d arrivals, want 200/s × 4 s = 800", len(a))
	}
	measured, reads := 0, 0
	for i, x := range a {
		if x.ID != i || x.Node != i%nodes {
			t.Fatalf("arrival %d: id %d node %d", i, x.ID, x.Node)
		}
		if x.Seed != 7+7919*int64(i)+1 {
			t.Fatalf("arrival %d: per-op seed %d", i, x.Seed)
		}
		if i > 0 && x.Due < a[i-1].Due {
			t.Fatalf("arrival %d due %v before arrival %d due %v", i, x.Due, i-1, a[i-1].Due)
		}
		if x.Measured != (x.Due >= time.Second) {
			t.Fatalf("arrival %d due %v measured=%v", i, x.Due, x.Measured)
		}
		if x.Due < 0 || x.Due >= 4*time.Second {
			t.Fatalf("arrival %d due %v outside the run", i, x.Due)
		}
		if x.Measured {
			measured++
		}
		if x.Read {
			reads++
		}
	}
	if measured != 600 {
		t.Fatalf("%d measured arrivals, want exactly 200/s × 3 s", measured)
	}
	if reads < 680 || reads > 760 { // 90 % of 800 = 720, σ ≈ 8.5
		t.Fatalf("%d reads of 800 at read fraction 0.9", reads)
	}
}

func TestRotatingWritersKeepAnAccountsWritersASlotApart(t *testing.T) {
	const slot = 100 * time.Millisecond
	const accounts = 256
	sched := buildSchedule(3, 250, 0.5, time.Second, 9*time.Second, slot)
	type write struct {
		due  time.Duration
		node int
	}
	picker := newClassPicker()
	writes := make([][]write, accounts)
	for _, a := range sched {
		if a.Read != (a.Class == anyClass) {
			t.Fatalf("arrival %d: read=%v class %d", a.ID, a.Read, a.Class)
		}
		rng := rand.New(rand.NewSource(a.Seed))
		if a.Read {
			picker.pick(rng, accounts) // unregistered: anywhere
			continue
		}
		picker.begin(rng, a.Class)
		last := -1
		for i := 0; i < 8; i++ { // the bank draws at most four from/to pairs
			acct := picker.pick(rng, accounts)
			if acct%writeClasses != a.Class || acct == last {
				t.Fatalf("arrival %d class %d: picked %d after %d", a.ID, a.Class, acct, last)
			}
			last = acct
			writes[acct] = append(writes[acct], write{a.Due, a.Node})
		}
		picker.end(rng)
	}
	if len(picker.ops) != 0 {
		t.Fatalf("%d operations still registered", len(picker.ops))
	}
	touched := 0
	for acct, ws := range writes { // in due order, as the schedule is
		if len(ws) > 0 {
			touched++
		}
		for i := 1; i < len(ws); i++ {
			if ws[i].node != ws[i-1].node && ws[i].due-ws[i-1].due < slot {
				t.Fatalf("account %d: node %d writes at %v, node %d at %v", acct, ws[i-1].node, ws[i-1].due, ws[i].node, ws[i].due)
			}
		}
	}
	if touched != accounts {
		t.Fatalf("%d of %d accounts written in 10 s", touched, accounts)
	}
}

func instantOp(context.Context, arrival, *rand.Rand) error { return nil }

func TestGeneratorCatchesUpAfterAStall(t *testing.T) {
	// 2000/s for 200 ms, and the generator stalls 60 ms at the 20 ms mark.
	sched := buildSchedule(1, 2000, 0.5, 0, 200*time.Millisecond, 0)
	const stall = 60 * time.Millisecond
	res := drive(context.Background(), newHub(false), sched, instantOp,
		limits{time.Second, time.Second}, []time.Duration{20 * time.Millisecond},
		func(int) { time.Sleep(stall) })
	if res.Admitted != len(sched) || res.Shed != 0 || len(res.Done) != len(sched) {
		t.Fatalf("offered %d: admitted %d, shed %d, done %d — a stall must not thin the schedule",
			len(sched), res.Admitted, res.Shed, len(res.Done))
	}
	var worst time.Duration
	for _, d := range res.Lateness {
		worst = max(worst, d)
	}
	if worst < stall*3/4 {
		t.Fatalf("worst lateness %v does not show the %v stall", worst, stall)
	}
	// Arrivals due well after the stall go out on time again.
	tail := res.Lateness[len(res.Lateness)-40:]
	for _, d := range tail {
		if d > 20*time.Millisecond {
			t.Fatalf("generator still %v late at the end of the run", d)
		}
	}
}

func TestNeverReturningOpIsFailedNotHung(t *testing.T) {
	sched := buildSchedule(1, 400, 0.5, 0, 50*time.Millisecond, 0) // 20 arrivals, 5 per node
	never := func(context.Context, arrival, *rand.Rand) error { select {} }
	t0 := time.Now()
	res := drive(context.Background(), newHub(false), sched, never,
		limits{100 * time.Millisecond, 200 * time.Millisecond}, nil, func(int) {})
	if took := time.Since(t0); took > 2*time.Second {
		t.Fatalf("run took %v with an operation that never returns", took)
	}
	if !res.DrainCut || len(res.Done) != 0 {
		t.Fatalf("drainCut=%v done=%d, want a cut drain and nothing returned", res.DrainCut, len(res.Done))
	}
	r := &runResult{Drive: res}
	if res.Admitted != len(sched) || r.failed() != len(sched) {
		t.Fatalf("admitted %d failed %d, want all %d failed", res.Admitted, r.failed(), len(sched))
	}
}

func TestFullQueueSheds(t *testing.T) {
	// One node's four workers are stuck and its queue holds 64: of 100
	// arrivals for that node, 4 are in service, 64 queued and 32 shed.
	var sched []arrival
	for i := 0; i < 100; i++ {
		sched = append(sched, arrival{ID: i, Node: 0, Measured: true})
	}
	stuck := func(ctx context.Context, _ arrival, _ *rand.Rand) error { <-ctx.Done(); return ctx.Err() }
	res := drive(context.Background(), newHub(false), sched, stuck,
		limits{20 * time.Millisecond, time.Second}, nil, func(int) {})
	if res.Shed < 100-queueCap-workersPerNode || res.Shed > 100-queueCap || res.Admitted+res.Shed != 100 {
		t.Fatalf("admitted %d shed %d of 100", res.Admitted, res.Shed)
	}
	if r := (&runResult{Drive: res}); r.failed() != res.Admitted {
		t.Fatalf("failed %d, want every admitted operation (%d): all hit the deadline", r.failed(), res.Admitted)
	}
}

// loopback hands every sent message straight to the destination's
// handler, like a zero-latency memnet without goroutines.
type loopback struct {
	id    transport.NodeID
	peers map[transport.NodeID]*loopback
	h     transport.Handler
}

func (l *loopback) Self() transport.NodeID          { return l.id }
func (l *loopback) SetHandler(h transport.Handler)  { l.h = h }
func (l *loopback) Close() error                    { return nil }
func (l *loopback) Send(m *transport.Message) error { c := *m; l.peers[m.To].h(&c); return nil }

func TestTapPairsRequestAndReply(t *testing.T) {
	h := newHub(true)
	peers := map[transport.NodeID]*loopback{}
	var taps [2]*tap
	var got [2][]transport.Message
	for i := range taps {
		lb := &loopback{id: transport.NodeID(i), peers: peers}
		peers[lb.id] = lb
		taps[i] = &tap{Transport: lb, hub: h}
		i := i
		taps[i].SetHandler(func(m *transport.Message) { got[i] = append(got[i], *m) })
	}
	h.active[0][2].Store(41 + 1) // operation 41 alone in flight on node 0

	req := &transport.Message{From: 0, To: 1, Kind: 10, Corr: 5}
	rep := &transport.Message{From: 1, To: 0, Kind: 10, Corr: 5, IsReply: true}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(taps[0].Send(req))
	must(taps[0].Send(req)) // retransmission: same Corr
	must(taps[1].Send(rep))
	must(taps[1].Send(rep)) // the duplicate's answer
	// Node 1 uses the same Corr for a call of its own: a different rpc.
	must(taps[1].Send(&transport.Message{From: 1, To: 0, Kind: 18, Corr: 5}))
	must(taps[0].Send(&transport.Message{From: 0, To: 1, Kind: 15}))         // one-way push
	must(taps[0].Send(&transport.Message{From: 0, To: 0, Kind: 1, Corr: 6})) // to its own directory shard

	if len(got[0]) != 4 || len(got[1]) != 3 {
		t.Fatalf("delivered %d and %d messages, want 4 and 3: the tap must pass everything through", len(got[0]), len(got[1]))
	}
	st := h.stats()
	if st.Sent != 6 || st.Self != 1 {
		t.Fatalf("sent %d cross-node and %d self messages, want 6 and 1", st.Sent, st.Self)
	}
	if st.ByKind[10] != 4 || st.ByKind[18] != 1 || st.ByKind[15] != 1 || st.ByKind[1] != 0 {
		t.Fatalf("per-kind counts %v", st.ByKind[:20])
	}
	if st.Retransmits != 1 {
		t.Fatalf("%d retransmits, want 1", st.Retransmits)
	}
	spans := h.rpcSpans()
	if len(spans) != 3 {
		t.Fatalf("%d rpc spans, want 3: (0,5), (1,5) and (0,6)", len(spans))
	}
	s := spans[0]
	if s.From != 0 || s.To != 1 || s.Corr != 5 || s.Kind != 10 || s.Retransmits != 1 || s.Op != 41 {
		t.Fatalf("first span %+v", s)
	}
	if !s.answered() || !(s.ReqSent <= s.ReqDelivered && s.ReqDelivered <= s.ReplySent && s.ReplySent <= s.ReplyDelivered) {
		t.Fatalf("first span's times out of order: %+v", s)
	}
	if s.rtt() < s.serve() {
		t.Fatalf("rpc span %v shorter than its serve span %v", s.rtt(), s.serve())
	}
	if spans[1].answered() || spans[1].From != 1 || spans[1].Op != -1 {
		t.Fatalf("node 1's own rpc with the same Corr: %+v", spans[1])
	}

	// A timed run's hub only counts.
	quiet := newHub(false)
	qt := &tap{Transport: &loopback{id: 0, peers: peers}, hub: quiet}
	must(qt.Send(req))
	if st := quiet.stats(); st.Sent != 1 || len(quiet.rpcSpans()) != 0 {
		t.Fatalf("count-only hub: %+v, %d spans", st, len(quiet.rpcSpans()))
	}
}

func TestPolicyTapKeepsTheOptionalInterfaces(t *testing.T) {
	rts := core.New(core.Options{Adaptive: true, AdaptBatch: 1})
	stats := &policyStats{}
	var pol sched.Policy = &policyTap{Policy: rts, stats: stats}

	// The three interfaces the runtime and the harness look for by type
	// assertion, exactly as they spell them.
	fb, ok := pol.(interface{ Feedback(committed bool) })
	if !ok {
		t.Fatal("Feedback lost")
	}
	st, ok := pol.(interface{ SetTracer(*trace.Recorder) })
	if !ok {
		t.Fatal("SetTracer lost")
	}
	qd, ok := pol.(sched.QueueDepther)
	if !ok {
		t.Fatal("QueueDepth lost")
	}

	before := rts.Threshold()
	fb.Feedback(true)
	if rts.Threshold() == before {
		t.Fatal("Feedback did not reach the wrapped RTS")
	}
	rec := trace.NewRecorder(0, 16, nil)
	st.SetTracer(rec)
	d := pol.OnConflict(sched.Request{Oid: object.ID("x"), TxID: 1, Node: 1, Elapsed: time.Second, ExpectedRemaining: time.Millisecond})
	if !d.Enqueue {
		t.Fatalf("decision %+v, want the long-running requester parked", d)
	}
	if rec.Len() == 0 {
		t.Fatal("SetTracer did not reach the wrapped RTS: its enqueue left no event")
	}
	if qd.QueueDepth() != 1 || rts.QueueDepth() != 1 {
		t.Fatalf("queue depth %d through the tap, %d at the RTS", qd.QueueDepth(), rts.QueueDepth())
	}
	if pol.RetryDelay(1, "p") != rts.RetryDelay(1, "p") || pol.Name() != "RTS" {
		t.Fatal("RetryDelay or Name not forwarded")
	}
	c := stats.counts()
	if c.Conflicts != 1 || c.Enqueues != 1 || c.BackoffNs != int64(d.Backoff) || c.RetryDelays != 1 {
		t.Fatalf("counts %+v", c)
	}

	// A policy without the optional methods still satisfies them, inertly.
	plain := &policyTap{Policy: sched.NewTFA(), stats: &policyStats{}}
	plain.Feedback(false)
	plain.SetTracer(rec)
	if plain.QueueDepth() != 0 {
		t.Fatal("TFA parks nobody")
	}
}

func TestMetricAgreement(t *testing.T) {
	rel := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	if !rel.agrees(100, 109) || rel.agrees(100, 111) || !rel.agrees(100, 91) || rel.agrees(100, 89) {
		t.Fatalf("%+v: a 10 %% bound holds both ways", rel)
	}
	both := metricDef{Name: "x", Better: "lower", Bound: 0.25, Abs: 0.5} // setup_s
	if !both.agrees(0.01, 0.4) || both.agrees(2, 2.6) || !both.agrees(4, 4.9) {
		t.Fatalf("%+v: the larger of the share and the allowance", both)
	}
	abs := metricDef{Name: "x", Better: "lower", Abs: 0.01} // failed_frac
	if !abs.agrees(0, 0.01) || abs.agrees(0, 0.02) {
		t.Fatalf("%+v: 0.01 absolute", abs)
	}
	if free := (metricDef{Name: "x"}); free.gated() || !free.agrees(1, 100) {
		t.Fatalf("%+v: an ungated metric never disagrees", free)
	}
	for _, d := range endToEnd {
		if d.Bound > 0.25 {
			t.Errorf("%s: bound %v above the contract's 0.25", d.Name, d.Bound)
		}
	}
}

// BENCHMARK.json at the repository root promises the driver a set of
// names and units per mode; the program must print exactly those.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q listed, %q defined", i, w.Name, workloads[i].Name)
		}
	}
	var bounded []metricDef
	for _, d := range endToEnd {
		if d.Bound > 0 {
			bounded = append(bounded, d)
		}
	}
	if len(doc.EndToEnd) != len(bounded) {
		t.Fatalf("%d end-to-end metrics listed, %d bounded ones defined", len(doc.EndToEnd), len(bounded))
	}
	for i, m := range doc.EndToEnd {
		if d := bounded[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: %+v listed, %+v defined", i, m, d)
		}
	}

	// An empty run names every per-layer metric; the micro-timings name
	// the rest.
	got := (&runResult{}).perLayer(&runResult{}, 0)
	mic, err := micro(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range mic {
		got[k] = v
	}
	if len(doc.PerLayer) != len(got) {
		t.Errorf("%d per-layer metrics listed, %d printed", len(doc.PerLayer), len(got))
	}
	for _, m := range doc.PerLayer {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("per-layer metric %s listed but not printed", m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("per-layer metric %s: unit %q listed, %q printed", m.Name, m.Unit, v.Unit)
		}
	}
}
