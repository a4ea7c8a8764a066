package stm

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
	"dstm/internal/wire"
)

// benchVal is a minimal object value with a registered codec, used by the
// codec tests: the real application values live above stm in the import
// graph and would cycle. The tests keep it under 256, which Go boxes
// without allocating, so the allocation gate counts the codec's
// allocations and not the value's: a real value (a pointer, like
// bank.Account) costs one allocation per decoded copy, which the
// transaction keeps.
type benchVal int64

// Copy implements object.Value.
func (v benchVal) Copy() object.Value { return v }

// AppendWire implements wire.Codec.
func (v benchVal) AppendWire(b []byte) ([]byte, error) { return wire.AppendVarint(b, int64(v)), nil }

// ReadWire implements wire.Codec.
func (benchVal) ReadWire(r *wire.Reader) any { return benchVal(r.Varint()) }

// wireIDBenchVal is test-only (90–99 are never assigned outside tests).
const wireIDBenchVal wire.ID = 99

func init() { wire.Register(wireIDBenchVal, benchVal(0)) }

// wireCase is one hot commit-pipeline payload and the allocations decoding
// it costs once the reader's intern table is warm: the fresh payload
// ReadWire boxes into an interface, and each of its non-empty slices.
type wireCase struct {
	name   string
	msg    wire.Codec
	allocs float64
}

// wireBenchCases returns the hot commit-pipeline payloads.
func wireBenchCases() []wireCase {
	oids := benchOids(8)
	ver := object.Version{Clock: 41, Node: 3}

	// A four-account audit's retrieve to one owner, and its reply: three
	// copies and one object that has moved on.
	retReq := retrieveReq{TxID: 77, Mode: sched.Read, MyCL: 2,
		Elapsed: 120 * time.Microsecond, Remain: 340 * time.Microsecond, Prefetch: true, Oids: oids[:4]}
	retResp := retrieveResp{OwnerClock: 42, Results: []retrieveResult{
		{Status: statusOK, Value: benchVal(100), Version: ver, RemoteCL: 3},
		{Status: statusOK, Value: benchVal(93), Version: ver, RemoteCL: 1},
		{Status: statusMoved, MovedTo: 2},
		{Status: statusOK, Value: benchVal(107), Version: ver},
	}}
	// A bank batch's announced write set at one owner, naming the two objects
	// the wave takes from other owners, locked there and handed over: two
	// copies under the attempt's lock, one with the requester queue that left
	// with it, and one object that has moved on.
	annReq := retrieveReq{TxID: 77, Mode: sched.Write, MyCL: 0,
		Elapsed: 80 * time.Microsecond, Remain: 900 * time.Microsecond, Prefetch: true, LockID: 1<<40 | 78,
		Oids: oids[:3], Taking: oids[3:5]}
	annResp := retrieveResp{OwnerClock: 42, Locked: true, Results: []retrieveResult{
		{Status: statusOK, Value: benchVal(100), Version: ver, RemoteCL: 1,
			Queue: []sched.Request{{Oid: oids[0], TxID: 78, Node: 5, Mode: sched.Write,
				MyCL: 1, Elapsed: time.Millisecond, ExpectedRemaining: 2 * time.Millisecond}}},
		{Status: statusMoved, MovedTo: 2},
		{Status: statusOK, Value: benchVal(93), Version: ver, RemoteCL: 1},
	}}
	// One owner's eight entries validated — the pump frame (WirePumpPayload)
	// — and the reply: five current versions, one entry another transaction
	// holds locked, and two entries gone from the owner — one to a known
	// node, one with no record.
	chk := WirePumpPayload().(retrieveReq)
	chkResp := retrieveResp{OwnerClock: 42, Results: make([]retrieveResult, 8)}
	for i := range chkResp.Results {
		chkResp.Results[i] = retrieveResult{Status: statusOK, Version: ver, RemoteCL: 1}
	}
	chkResp.Results[2] = retrieveResult{Status: statusMoved, MovedTo: 2}
	chkResp.Results[4] = retrieveResult{Status: statusDenied}
	chkResp.Results[5] = retrieveResult{Status: statusNotOwner}
	// A homes-wave message naming eight objects a commit's locks brought to
	// node 3.
	com := commitObjBatchReq{TxID: 77, NewOwner: 3, Moved: oids}

	return []wireCase{
		{"retrieveReq", retReq, 2},
		{"retrieveResp", retResp, 2},
		{"retrieveReqAnnounce", annReq, 3},
		{"retrieveRespLocked", annResp, 3},
		{"checkBatchReq8", chk, 2},
		{"checkBatchResp8", chkResp, 2},
		{"commitObjBatchReq4", com, 2},
	}
}

// hintedFrame is a retrieve request carrying owner hints, as a node sends
// one: node 0 registers two objects, and its next message to node 1 (a
// lookup, here given a retrieve's payload) carries them.
func hintedFrame(t *testing.T) *transport.Message {
	t.Helper()
	tc := newTestCluster(t, 2, nil, nil)
	ctx := context.Background()
	oids := benchOids(2)
	for _, oid := range oids {
		if err := tc.rts[0].CreateRoot(ctx, oid, benchVal(1)); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	var frame *transport.Message
	tc.net.SetInterceptor(func(m *transport.Message) bool {
		mu.Lock()
		defer mu.Unlock()
		if m.From == 0 && m.Piggyback != nil && frame == nil {
			c := *m
			frame = &c
		}
		return true
	})
	if _, _, err := tc.rts[0].Locator().AskHomes(ctx, []object.ID{homedAt(t, 2, 1)}); err == nil {
		t.Fatal("the lookup of an unregistered object succeeded")
	}
	mu.Lock()
	defer mu.Unlock()
	if frame == nil {
		t.Fatal("node 0's message to node 1 carried no owner hints")
	}
	frame.Payload = wireBenchCases()[0].msg
	return frame
}

// encode returns c's encoding, failing the test when c cannot be encoded.
func encode(tb testing.TB, c wire.Codec) []byte {
	tb.Helper()
	b, err := c.AppendWire(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestWireCodecZeroAlloc is the codec perf gate run by scripts/ci.sh. The
// binary encode of every hot commit-pipeline payload must not allocate, and
// its decode must allocate exactly what receiving it costs in production
// (transport.DecodeMessage → Reader.Any → ReadWire): the fresh payload and
// its slices, nothing per entry once the intern table is warm. A regression
// here silently reintroduces per-message garbage on the TCP path. A whole
// frame whose piggyback carries owner hints encodes without allocating too.
func TestWireCodecZeroAlloc(t *testing.T) {
	t.Run("encode/frameWithHints", func(t *testing.T) {
		frame := hintedFrame(t)
		buf := make([]byte, 0, 1024)
		allocs := testing.AllocsPerRun(200, func() {
			b, err := transport.AppendMessage(buf[:0], frame)
			if err != nil || len(b) == 0 {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("encoding a frame with owner hints allocates %.1f/op; want 0", allocs)
		}
	})
	for _, c := range wireBenchCases() {
		t.Run("encode/"+c.name, func(t *testing.T) {
			buf := make([]byte, 0, 1024)
			allocs := testing.AllocsPerRun(200, func() {
				b, err := c.msg.AppendWire(buf[:0])
				if err != nil || len(b) == 0 {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("encode %s allocates %.1f/op; want 0", c.name, allocs)
			}
		})
		t.Run("decode/"+c.name, func(t *testing.T) {
			enc := encode(t, c.msg)
			r := wire.NewReader(enc)
			if got := c.msg.ReadWire(r); r.Err() != nil || !reflect.DeepEqual(got, c.msg) {
				t.Fatalf("decode %s = %+v (%v), want %+v", c.name, got, r.Err(), c.msg)
			}
			allocs := testing.AllocsPerRun(200, func() {
				r.Reset(enc)
				c.msg.ReadWire(r)
			})
			t.Logf("decode %s: %.0f allocs/op", c.name, allocs)
			if allocs != c.allocs {
				t.Errorf("decode %s allocates %.1f/op; want %.0f: the payload and its slices", c.name, allocs, c.allocs)
			}
		})
	}
}

func BenchmarkWireEncode(b *testing.B) {
	for _, c := range wireBenchCases() {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, 1024)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = c.msg.AppendWire(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWireDecode(b *testing.B) {
	for _, c := range wireBenchCases() {
		b.Run(c.name, func(b *testing.B) {
			enc := encode(b, c.msg)
			r := wire.NewReader(enc)
			c.msg.ReadWire(r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(enc)
				c.msg.ReadWire(r)
			}
			if err := r.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
