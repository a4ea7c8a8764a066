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
// codec tests: the real application values live above stm in the
// import graph and would cycle.
type benchVal struct{ N int64 }

// Copy implements object.Value.
func (v *benchVal) Copy() object.Value { c := *v; return &c }

// wireIDBenchVal sits just below the application-value range.
const wireIDBenchVal wire.ID = 99

func init() {
	object.Register(&benchVal{})
	wire.Register(wireIDBenchVal, &benchVal{},
		func(b []byte, v any) ([]byte, error) {
			return wire.AppendVarint(b, v.(*benchVal).N), nil
		},
		func(r *wire.Reader, prev any) any {
			v, _ := prev.(*benchVal)
			if v == nil {
				v = new(benchVal)
			}
			v.N = r.Varint()
			return v
		})
}

// wireBenchCases returns the hot commit-pipeline payloads with encode and
// decode-in-place closures over the registered codec methods.
func wireBenchCases() []struct {
	name string
	enc  func(b []byte) ([]byte, error)
	dec  func(r *wire.Reader)
} {
	oids := benchOids(8)
	ver := object.Version{Clock: 41, Node: 3}

	// A four-account audit's retrieve to one owner, and its reply: three
	// copies and one object that has moved on.
	retReq := retrieveReq{TxID: 77, Mode: sched.Read, MyCL: 2,
		Elapsed: 120 * time.Microsecond, Remain: 340 * time.Microsecond, Prefetch: true, Oids: oids[:4]}
	retResp := retrieveResp{OwnerClock: 42, Results: []retrieveResult{
		{Status: statusOK, Value: &benchVal{N: 1000}, Version: ver, RemoteCL: 3},
		{Status: statusOK, Value: &benchVal{N: 993}, Version: ver, RemoteCL: 1},
		{Status: statusMoved, MovedTo: 2},
		{Status: statusOK, Value: &benchVal{N: 1007}, Version: ver},
	}}
	// The acquire and check replies of one owner: eight entries, two of them
	// gone — one to a known node, one with no record.
	answers := make([]answer, 8)
	answers[2] = answer{Status: statusMoved, MovedTo: 2}
	answers[5] = answer{Status: statusNotOwner}
	acqResp := acquireBatchResp{Results: answers}
	chkResp := checkBatchResp{Results: answers}

	acq := acquireBatchReq{TxID: 77}
	chk := checkBatchReq{TxID: 77}
	for _, oid := range oids {
		acq.Entries = append(acq.Entries, verEntry{Oid: oid, Ver: ver})
		chk.Entries = append(chk.Entries, verEntry{Oid: oid, Ver: ver})
	}
	// A publish message to the old owner of four of the eight objects moved.
	com := commitObjBatchReq{TxID: 77, NewOwner: 3, Oids: oids[:4], Moved: oids}
	comResp := commitObjBatchResp{Results: make([]commitObjBatchResult, 4)}
	comResp.Results[1].Queue = []sched.Request{{Oid: oids[1], TxID: 78, Node: 5, Mode: sched.Write,
		MyCL: 1, Elapsed: time.Millisecond, ExpectedRemaining: 2 * time.Millisecond}}

	var decRetReq retrieveReq
	var decRetResp retrieveResp
	var decAcq acquireBatchReq
	var decAcqResp acquireBatchResp
	var decChk checkBatchReq
	var decChkResp checkBatchResp
	var decCom commitObjBatchReq
	var decComResp commitObjBatchResp

	return []struct {
		name string
		enc  func(b []byte) ([]byte, error)
		dec  func(r *wire.Reader)
	}{
		{"retrieveReq",
			func(b []byte) ([]byte, error) { return retReq.appendWire(b), nil },
			func(r *wire.Reader) { decRetReq.decodeWire(r) }},
		{"retrieveResp",
			func(b []byte) ([]byte, error) { return retResp.appendWire(b) },
			func(r *wire.Reader) { decRetResp.decodeWire(r) }},
		{"acquireBatchReq8",
			func(b []byte) ([]byte, error) { return acq.appendWire(b), nil },
			func(r *wire.Reader) { decAcq.decodeWire(r) }},
		{"acquireBatchResp8",
			func(b []byte) ([]byte, error) { return acqResp.appendWire(b), nil },
			func(r *wire.Reader) { decAcqResp.decodeWire(r) }},
		{"checkBatchReq8",
			func(b []byte) ([]byte, error) { return chk.appendWire(b), nil },
			func(r *wire.Reader) { decChk.decodeWire(r) }},
		{"checkBatchResp8",
			func(b []byte) ([]byte, error) { return chkResp.appendWire(b), nil },
			func(r *wire.Reader) { decChkResp.decodeWire(r) }},
		{"commitObjBatchReq4",
			func(b []byte) ([]byte, error) { return com.appendWire(b), nil },
			func(r *wire.Reader) { decCom.decodeWire(r) }},
		{"commitObjBatchResp4",
			func(b []byte) ([]byte, error) { return comResp.appendWire(b), nil },
			func(r *wire.Reader) { decComResp.decodeWire(r) }},
	}
}

// TestWireCodecZeroAlloc is the codec perf gate run by scripts/ci.sh: the
// binary encode AND the decode-in-place of every hot commit-pipeline
// payload must not allocate in steady state (after the intern table and
// reusable slices are warm). A regression here silently reintroduces
// per-message garbage on the TCP path.
func TestWireCodecZeroAlloc(t *testing.T) {
	for _, c := range wireBenchCases() {
		c := c
		t.Run("encode/"+c.name, func(t *testing.T) {
			buf := make([]byte, 0, 1024)
			allocs := testing.AllocsPerRun(200, func() {
				b, err := c.enc(buf[:0])
				if err != nil || len(b) == 0 {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("encode %s allocates %.1f/op; want 0", c.name, allocs)
			}
		})
		t.Run("decode/"+c.name, func(t *testing.T) {
			enc, err := c.enc(nil)
			if err != nil {
				t.Fatal(err)
			}
			r := wire.NewReader(nil)
			// Warm: populate the intern table and the reused slices/values.
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
	long := acquireBatchReq{TxID: 1}
	for _, oid := range benchOids(8) {
		long.Entries = append(long.Entries, verEntry{Oid: oid})
	}
	short := acquireBatchReq{TxID: 2, Entries: long.Entries[:2:2]}

	var dst acquireBatchReq
	r := wire.NewReader(nil)
	r.Reset(long.appendWire(nil))
	dst.decodeWire(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(dst.Entries) != 8 {
		t.Fatalf("long decode: %d entries", len(dst.Entries))
	}
	r.Reset(short.appendWire(nil))
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

	// The prefetch flag of one retrieve must not stick to the next.
	var ret retrieveReq
	for _, want := range []bool{true, false} {
		r.Reset(retrieveReq{TxID: 3, Prefetch: want, Oids: benchOids(2)}.appendWire(nil))
		ret.decodeWire(r)
		if err := r.Err(); err != nil || ret.Prefetch != want || len(ret.Oids) != 2 {
			t.Fatalf("retrieve decode: prefetch=%v oids=%d err=%v, want %v, 2", ret.Prefetch, len(ret.Oids), err, want)
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
				if buf, err = c.enc(buf[:0]); err != nil {
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
			enc, err := c.enc(nil)
			if err != nil {
				b.Fatal(err)
			}
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
