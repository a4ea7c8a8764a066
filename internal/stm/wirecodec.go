// Binary wire codecs for the STM protocol payloads (see DESIGN.md "Wire
// format" for the type-ID map). Encoders are append-style and alloc-free;
// decoders write into the payload struct in place, reusing its slices and
// embedded object values, so a connection decoding into a reused payload
// reaches zero steady-state allocations.
package stm

import (
	"fmt"
	"time"

	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
	"dstm/internal/wire"
)

// Wire type IDs 10–39 are reserved for STM payloads. They are a static
// protocol: never renumber, only append. IDs 10–15, 17 and 18 (payloads of
// the retired per-object retrieve/check/acquire/commit RPCs), 22 and 24 (the
// acquire and check replies without the not-here answer), 25 and 26 (the
// publish pair that carried values and no move list), 27–30 (the retired
// MVCC snapshot-read payloads) and 31 and 32 (the retrieve pair without the
// lock identity and the locked flag) are reserved: never reuse them, or a
// frame from an old peer would mis-decode into a live type.
const (
	wireIDReleaseReq         wire.ID = 16
	wireIDPushMsg            wire.ID = 19
	wireIDDeclineMsg         wire.ID = 20
	wireIDAcquireBatchReq    wire.ID = 21
	wireIDCheckBatchReq      wire.ID = 23
	wireIDCommitObjBatchReq  wire.ID = 33
	wireIDCommitObjBatchResp wire.ID = 34
	wireIDAcquireBatchResp   wire.ID = 35
	wireIDCheckBatchResp     wire.ID = 36
	wireIDRetrieveReq        wire.ID = 37
	wireIDRetrieveResp       wire.ID = 38
)

func appendVersion(b []byte, v object.Version) []byte {
	b = wire.AppendUvarint(b, v.Clock)
	return wire.AppendVarint(b, int64(v.Node))
}

func readVersion(r *wire.Reader) object.Version {
	return object.Version{Clock: r.Uvarint(), Node: int32(r.Varint())}
}

// readValue decodes an object value, reusing prev when the concrete type
// matches, and enforces that the decoded payload implements object.Value.
func readValue(r *wire.Reader, prev object.Value) object.Value {
	av := r.Any(prev)
	if av == nil {
		return nil
	}
	v, ok := av.(object.Value)
	if !ok {
		r.Fail(fmt.Errorf("%w: %T is not an object value", wire.ErrMalformed, av))
		return nil
	}
	return v
}

func appendSchedRequest(b []byte, q *sched.Request) []byte {
	b = wire.AppendString(b, string(q.Oid))
	b = wire.AppendUvarint(b, q.TxID)
	b = wire.AppendVarint(b, int64(q.Node))
	b = wire.AppendUvarint(b, uint64(q.Mode))
	b = wire.AppendVarint(b, int64(q.MyCL))
	b = wire.AppendVarint(b, int64(q.Elapsed))
	return wire.AppendVarint(b, int64(q.ExpectedRemaining))
}

func readSchedRequest(r *wire.Reader, q *sched.Request) {
	q.Oid = object.ID(r.String())
	q.TxID = r.Uvarint()
	q.Node = transport.NodeID(r.Varint())
	q.Mode = sched.Mode(r.Uvarint())
	q.MyCL = int(r.Varint())
	q.Elapsed = time.Duration(r.Varint())
	q.ExpectedRemaining = time.Duration(r.Varint())
}

func appendSchedQueue(b []byte, qs []sched.Request) []byte {
	b = wire.AppendUvarint(b, uint64(len(qs)))
	for i := range qs {
		b = appendSchedRequest(b, &qs[i])
	}
	return b
}

func readSchedQueue(r *wire.Reader, prev []sched.Request) []sched.Request {
	n := r.SliceLen(7)
	if n == 0 {
		return prev[:0]
	}
	qs := wire.Grow(prev, n)
	for i := range qs {
		readSchedRequest(r, &qs[i])
	}
	return qs
}

// ---------------------------------------------------------------------------
// Per-payload codecs. Encoders are value-receiver methods (no escape);
// decoders are pointer-receiver and overwrite in place.

func (q retrieveReq) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, q.TxID)
	b = wire.AppendUvarint(b, uint64(q.Mode))
	b = wire.AppendVarint(b, int64(q.MyCL))
	b = wire.AppendVarint(b, int64(q.Elapsed))
	b = wire.AppendVarint(b, int64(q.Remain))
	b = wire.AppendBool(b, q.Prefetch)
	b = wire.AppendUvarint(b, q.LockID)
	return wire.AppendStrings(b, q.Oids)
}

func (q *retrieveReq) decodeWire(r *wire.Reader) {
	q.TxID = r.Uvarint()
	q.Mode = sched.Mode(r.Uvarint())
	q.MyCL = int(r.Varint())
	q.Elapsed = time.Duration(r.Varint())
	q.Remain = time.Duration(r.Varint())
	q.Prefetch = r.Bool()
	q.LockID = r.Uvarint()
	q.Oids = wire.ReadStrings(r, q.Oids)
}

func (q retrieveResp) appendWire(b []byte) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(q.Results)))
	for i := range q.Results {
		res := &q.Results[i]
		b = wire.AppendUvarint(b, uint64(res.Status))
		var err error
		b, err = wire.AppendAny(b, res.Value)
		if err != nil {
			return b, err
		}
		b = appendVersion(b, res.Version)
		b = wire.AppendVarint(b, int64(res.RemoteCL))
		b = wire.AppendVarint(b, int64(res.Backoff))
		b = wire.AppendVarint(b, int64(res.MovedTo))
	}
	b = wire.AppendUvarint(b, q.OwnerClock)
	return wire.AppendBool(b, q.Locked), nil
}

func (q *retrieveResp) decodeWire(r *wire.Reader) {
	q.Results = wire.Grow(q.Results, r.SliceLen(7))
	for i := range q.Results {
		res := &q.Results[i]
		res.Status = status(r.Uvarint())
		res.Value = readValue(r, res.Value)
		res.Version = readVersion(r)
		res.RemoteCL = int(r.Varint())
		res.Backoff = time.Duration(r.Varint())
		res.MovedTo = transport.NodeID(r.Varint())
	}
	q.OwnerClock = r.Uvarint()
	q.Locked = r.Bool()
}

func (q releaseReq) appendWire(b []byte) []byte {
	b = wire.AppendStrings(b, q.Oids)
	return wire.AppendUvarint(b, q.TxID)
}

func (q *releaseReq) decodeWire(r *wire.Reader) {
	q.Oids = wire.ReadStrings(r, q.Oids)
	q.TxID = r.Uvarint()
}

func (q pushMsg) appendWire(b []byte) ([]byte, error) {
	b = wire.AppendString(b, string(q.Oid))
	b = wire.AppendUvarint(b, q.TxID)
	b, err := wire.AppendAny(b, q.Value)
	if err != nil {
		return b, err
	}
	b = appendVersion(b, q.Version)
	b = wire.AppendVarint(b, int64(q.Owner))
	b = wire.AppendUvarint(b, q.OwnerClock)
	return wire.AppendVarint(b, int64(q.RemoteCL)), nil
}

func (q *pushMsg) decodeWire(r *wire.Reader) {
	q.Oid = object.ID(r.String())
	q.TxID = r.Uvarint()
	q.Value = readValue(r, q.Value)
	q.Version = readVersion(r)
	q.Owner = transport.NodeID(r.Varint())
	q.OwnerClock = r.Uvarint()
	q.RemoteCL = int(r.Varint())
}

func (q declineMsg) appendWire(b []byte) []byte {
	return wire.AppendString(b, string(q.Oid))
}

func (q *declineMsg) decodeWire(r *wire.Reader) {
	q.Oid = object.ID(r.String())
}

func appendVerEntries(b []byte, es []verEntry) []byte {
	b = wire.AppendUvarint(b, uint64(len(es)))
	for i := range es {
		b = wire.AppendString(b, string(es[i].Oid))
		b = appendVersion(b, es[i].Ver)
	}
	return b
}

func readVerEntries(r *wire.Reader, prev []verEntry) []verEntry {
	n := r.SliceLen(3)
	es := wire.Grow(prev, n)
	for i := range es {
		es[i].Oid = object.ID(r.String())
		es[i].Ver = readVersion(r)
	}
	return es
}

func (q acquireBatchReq) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, q.TxID)
	return appendVerEntries(b, q.Entries)
}

func (q *acquireBatchReq) decodeWire(r *wire.Reader) {
	q.TxID = r.Uvarint()
	q.Entries = readVerEntries(r, q.Entries)
}

func appendAnswers(b []byte, as []answer) []byte {
	b = wire.AppendUvarint(b, uint64(len(as)))
	for i := range as {
		b = wire.AppendUvarint(b, uint64(as[i].Status))
		b = wire.AppendVarint(b, int64(as[i].MovedTo))
	}
	return b
}

func readAnswers(r *wire.Reader, prev []answer) []answer {
	as := wire.Grow(prev, r.SliceLen(2))
	for i := range as {
		as[i].Status = status(r.Uvarint())
		as[i].MovedTo = transport.NodeID(r.Varint())
	}
	return as
}

func (q acquireBatchResp) appendWire(b []byte) []byte {
	return wire.AppendBool(appendAnswers(b, q.Results), q.Applied)
}

func (q *acquireBatchResp) decodeWire(r *wire.Reader) {
	q.Results = readAnswers(r, q.Results)
	q.Applied = r.Bool()
}

func (q checkBatchReq) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, q.TxID)
	return appendVerEntries(b, q.Entries)
}

func (q *checkBatchReq) decodeWire(r *wire.Reader) {
	q.TxID = r.Uvarint()
	q.Entries = readVerEntries(r, q.Entries)
}

func (q checkBatchResp) appendWire(b []byte) []byte {
	return appendAnswers(b, q.Results)
}

func (q *checkBatchResp) decodeWire(r *wire.Reader) {
	q.Results = readAnswers(r, q.Results)
}

func (q commitObjBatchReq) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, q.TxID)
	b = wire.AppendVarint(b, int64(q.NewOwner))
	b = wire.AppendStrings(b, q.Oids)
	return wire.AppendStrings(b, q.Moved)
}

func (q *commitObjBatchReq) decodeWire(r *wire.Reader) {
	q.TxID = r.Uvarint()
	q.NewOwner = transport.NodeID(r.Varint())
	q.Oids = wire.ReadStrings(r, q.Oids)
	q.Moved = wire.ReadStrings(r, q.Moved)
}

func (q commitObjBatchResp) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(q.Results)))
	for i := range q.Results {
		b = appendSchedQueue(b, q.Results[i].Queue)
		b = wire.AppendString(b, q.Results[i].Err)
	}
	return wire.AppendString(b, q.DirErr)
}

func (q *commitObjBatchResp) decodeWire(r *wire.Reader) {
	n := r.SliceLen(2)
	q.Results = wire.Grow(q.Results, n)
	for i := range q.Results {
		q.Results[i].Queue = readSchedQueue(r, q.Results[i].Queue)
		q.Results[i].Err = r.String()
	}
	q.DirErr = r.String()
}

// ---------------------------------------------------------------------------
// Registration. The encode closures call value-receiver methods directly so
// the registered encode path stays allocation-free; the decode closures
// reuse prev's slices and values when the transport hands one back.

func init() {
	wire.Register(wireIDRetrieveReq, retrieveReq{},
		func(b []byte, v any) ([]byte, error) { return v.(retrieveReq).appendWire(b), nil },
		func(r *wire.Reader, prev any) any {
			var q retrieveReq
			if p, ok := prev.(retrieveReq); ok {
				q = p
			}
			q.decodeWire(r)
			return q
		})
	wire.Register(wireIDRetrieveResp, retrieveResp{},
		func(b []byte, v any) ([]byte, error) { return v.(retrieveResp).appendWire(b) },
		func(r *wire.Reader, prev any) any {
			var q retrieveResp
			if p, ok := prev.(retrieveResp); ok {
				q = p
			}
			q.decodeWire(r)
			return q
		})
	wire.Register(wireIDReleaseReq, releaseReq{},
		func(b []byte, v any) ([]byte, error) { return v.(releaseReq).appendWire(b), nil },
		func(r *wire.Reader, prev any) any {
			var q releaseReq
			if p, ok := prev.(releaseReq); ok {
				q = p
			}
			q.decodeWire(r)
			return q
		})
	wire.Register(wireIDPushMsg, pushMsg{},
		func(b []byte, v any) ([]byte, error) { return v.(pushMsg).appendWire(b) },
		func(r *wire.Reader, prev any) any {
			var q pushMsg
			if p, ok := prev.(pushMsg); ok {
				q = p
			}
			q.decodeWire(r)
			return q
		})
	wire.Register(wireIDDeclineMsg, declineMsg{},
		func(b []byte, v any) ([]byte, error) { return v.(declineMsg).appendWire(b), nil },
		func(r *wire.Reader, prev any) any {
			var q declineMsg
			q.decodeWire(r)
			return q
		})
	wire.Register(wireIDAcquireBatchReq, acquireBatchReq{},
		func(b []byte, v any) ([]byte, error) { return v.(acquireBatchReq).appendWire(b), nil },
		func(r *wire.Reader, prev any) any {
			var q acquireBatchReq
			if p, ok := prev.(acquireBatchReq); ok {
				q = p
			}
			q.decodeWire(r)
			return q
		})
	wire.Register(wireIDAcquireBatchResp, acquireBatchResp{},
		func(b []byte, v any) ([]byte, error) { return v.(acquireBatchResp).appendWire(b), nil },
		func(r *wire.Reader, prev any) any {
			var q acquireBatchResp
			if p, ok := prev.(acquireBatchResp); ok {
				q = p
			}
			q.decodeWire(r)
			return q
		})
	wire.Register(wireIDCheckBatchReq, checkBatchReq{},
		func(b []byte, v any) ([]byte, error) { return v.(checkBatchReq).appendWire(b), nil },
		func(r *wire.Reader, prev any) any {
			var q checkBatchReq
			if p, ok := prev.(checkBatchReq); ok {
				q = p
			}
			q.decodeWire(r)
			return q
		})
	wire.Register(wireIDCheckBatchResp, checkBatchResp{},
		func(b []byte, v any) ([]byte, error) { return v.(checkBatchResp).appendWire(b), nil },
		func(r *wire.Reader, prev any) any {
			var q checkBatchResp
			if p, ok := prev.(checkBatchResp); ok {
				q = p
			}
			q.decodeWire(r)
			return q
		})
	wire.Register(wireIDCommitObjBatchReq, commitObjBatchReq{},
		func(b []byte, v any) ([]byte, error) { return v.(commitObjBatchReq).appendWire(b), nil },
		func(r *wire.Reader, prev any) any {
			var q commitObjBatchReq
			if p, ok := prev.(commitObjBatchReq); ok {
				q = p
			}
			q.decodeWire(r)
			return q
		})
	wire.Register(wireIDCommitObjBatchResp, commitObjBatchResp{},
		func(b []byte, v any) ([]byte, error) { return v.(commitObjBatchResp).appendWire(b), nil },
		func(r *wire.Reader, prev any) any {
			var q commitObjBatchResp
			if p, ok := prev.(commitObjBatchResp); ok {
				q = p
			}
			q.decodeWire(r)
			return q
		})
}

// benchOids returns n recurring object IDs shaped like real ones.
func benchOids(n int) []object.ID {
	oids := make([]object.ID, n)
	for i := range oids {
		oids[i] = object.ID(fmt.Sprintf("bank/acct/n3/%d", i))
	}
	return oids
}

// WirePumpPayload returns a representative commit-pipeline payload (an
// 8-entry acquire batch) for transport-level pump benchmarks
// (bench/micro.go sizes wire.msg_bytes from it, so its value is fixed).
func WirePumpPayload() any {
	oids := benchOids(8)
	q := acquireBatchReq{TxID: 77}
	for _, oid := range oids {
		q.Entries = append(q.Entries, verEntry{Oid: oid, Ver: object.Version{Clock: 41, Node: 3}})
	}
	return q
}
