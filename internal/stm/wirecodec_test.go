package stm

import (
	"strings"
	"testing"
	"time"

	"dstm/internal/object"
	"dstm/internal/sched"
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

// wireCase is one hot commit-pipeline payload and a decode in place into a
// struct of its type that the case keeps warm.
type wireCase struct {
	name string
	msg  wire.Codec
	dec  func(r *wire.Reader)
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
	// A bank batch's announced write set at one owner, locked there: two
	// copies under the attempt's lock and one object that has moved on.
	annReq := retrieveReq{TxID: 77, Mode: sched.Write, MyCL: 0,
		Elapsed: 80 * time.Microsecond, Remain: 900 * time.Microsecond, Prefetch: true, LockID: 1<<40 | 78, Oids: oids[:3]}
	annResp := retrieveResp{OwnerClock: 42, Locked: true, Results: []retrieveResult{
		{Status: statusOK, Value: benchVal(100), Version: ver, RemoteCL: 1},
		{Status: statusMoved, MovedTo: 2},
		{Status: statusOK, Value: benchVal(93), Version: ver, RemoteCL: 1},
	}}
	// One owner's eight entries, acquired at the versions the transaction
	// writes over and validated at the versions it read, with the replies:
	// every lock taken, and two entries gone from the owner — one to a known
	// node, one with no record.
	acq := verBatchReq{TxID: 77}
	chk := verBatchReq{TxID: 77}
	for i, oid := range oids {
		acq.Entries = append(acq.Entries, verEntry{Oid: oid, Ver: ver})
		chk.Entries = append(chk.Entries, verEntry{Oid: oid, Ver: object.Version{Clock: 30 + uint64(i), Node: 3}})
	}
	acqResp := answersResp{Results: make([]answer, 8)}
	gone := make([]answer, 8)
	gone[2] = answer{Status: statusMoved, MovedTo: 2}
	gone[5] = answer{Status: statusNotOwner}
	chkResp := answersResp{Results: gone}
	// A publish message to the old owner of four of the eight objects moved.
	com := commitObjBatchReq{TxID: 77, NewOwner: 3, Oids: oids[:4], Moved: oids}
	comResp := commitObjBatchResp{Results: make([]commitObjBatchResult, 4)}
	comResp.Results[1].Queue = []sched.Request{{Oid: oids[1], TxID: 78, Node: 5, Mode: sched.Write,
		MyCL: 1, Elapsed: time.Millisecond, ExpectedRemaining: 2 * time.Millisecond}}

	var decRetReq, decAnnReq retrieveReq
	var decRetResp, decAnnResp retrieveResp
	var decAcq, decChk verBatchReq
	var decAcqResp, decChkResp answersResp
	var decCom commitObjBatchReq
	var decComResp commitObjBatchResp

	return []wireCase{
		{"retrieveReq", retReq, func(r *wire.Reader) { decRetReq.decodeWire(r) }},
		{"retrieveResp", retResp, func(r *wire.Reader) { decRetResp.decodeWire(r) }},
		{"retrieveReqAnnounce", annReq, func(r *wire.Reader) { decAnnReq.decodeWire(r) }},
		{"retrieveRespLocked", annResp, func(r *wire.Reader) { decAnnResp.decodeWire(r) }},
		{"acquireBatchReq8", acq, func(r *wire.Reader) { decAcq.decodeWire(r) }},
		{"acquireBatchResp8", acqResp, func(r *wire.Reader) { decAcqResp.decodeWire(r) }},
		{"checkBatchReq8", chk, func(r *wire.Reader) { decChk.decodeWire(r) }},
		{"checkBatchResp8", chkResp, func(r *wire.Reader) { decChkResp.decodeWire(r) }},
		{"commitObjBatchReq4", com, func(r *wire.Reader) { decCom.decodeWire(r) }},
		{"commitObjBatchResp4", comResp, func(r *wire.Reader) { decComResp.decodeWire(r) }},
	}
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

// TestWireCodecZeroAlloc is the codec perf gate run by scripts/ci.sh: the
// binary encode AND the decode-in-place of every hot commit-pipeline
// payload must not allocate in steady state (after the intern table and
// reusable slices are warm). A regression here silently reintroduces
// per-message garbage on the TCP path.
//
// The decode half times decodeWire into a warm struct, which no production
// path does: transport.DecodeMessage decodes every frame into a fresh
// payload (Reader.Any → ReadWire). So the benchmark's wire.msg_allocs of 2
// for the pump frame — the fresh payload and its Entries slice — is what
// receiving it costs, and this gate shows decoding adds nothing beyond the
// payload's own memory.
func TestWireCodecZeroAlloc(t *testing.T) {
	for _, c := range wireBenchCases() {
		c := c
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
			r := wire.NewReader(nil)
			// Warm: populate the intern table and the reused slices.
			r.Reset(enc)
			c.dec(r)
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(200, func() {
				r.Reset(enc)
				c.dec(r)
			})
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("decode %s allocates %.1f/op; want 0", c.name, allocs)
			}
		})
	}
}

// TestWireDecodeReuse verifies the decode-into path reuses prior state
// without leaking values across messages: decoding a shorter batch after a
// longer one must not resurrect stale entries.
func TestWireDecodeReuse(t *testing.T) {
	long := verBatchReq{TxID: 1}
	for _, oid := range benchOids(8) {
		long.Entries = append(long.Entries, verEntry{Oid: oid})
	}
	short := verBatchReq{TxID: 2, Entries: long.Entries[:2:2]}

	var dst verBatchReq
	r := wire.NewReader(nil)
	r.Reset(encode(t, long))
	dst.decodeWire(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(dst.Entries) != 8 {
		t.Fatalf("long decode: %d entries", len(dst.Entries))
	}
	r.Reset(encode(t, short))
	dst.decodeWire(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if dst.TxID != 2 || len(dst.Entries) != 2 {
		t.Fatalf("short decode after long: tx=%d entries=%d", dst.TxID, len(dst.Entries))
	}
	if !strings.HasSuffix(string(dst.Entries[1].Oid), "/1") {
		t.Fatalf("entry 1 oid %q", dst.Entries[1].Oid)
	}

	// The prefetch flag and lock identity of one retrieve must not stick to
	// the next, nor the locked flag of one reply.
	var ret retrieveReq
	var resp retrieveResp
	for _, want := range []bool{true, false} {
		var lockID uint64
		if want {
			lockID = 9
		}
		r.Reset(encode(t, retrieveReq{TxID: 3, Prefetch: want, LockID: lockID, Oids: benchOids(2)}))
		ret.decodeWire(r)
		if err := r.Err(); err != nil || ret.Prefetch != want || ret.LockID != lockID || len(ret.Oids) != 2 {
			t.Fatalf("retrieve decode: prefetch=%v lock=%d oids=%d err=%v, want %v, %d, 2", ret.Prefetch, ret.LockID, len(ret.Oids), err, want, lockID)
		}
		r.Reset(encode(t, retrieveResp{Locked: want}))
		resp.decodeWire(r)
		if err := r.Err(); err != nil || resp.Locked != want {
			t.Fatalf("retrieve reply decode: locked=%v err=%v, want %v", resp.Locked, err, want)
		}
	}
}

func BenchmarkWireEncode(b *testing.B) {
	for _, c := range wireBenchCases() {
		c := c
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
		c := c
		b.Run(c.name, func(b *testing.B) {
			enc := encode(b, c.msg)
			r := wire.NewReader(nil)
			r.Reset(enc)
			c.dec(r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(enc)
				c.dec(r)
			}
			if err := r.Err(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
