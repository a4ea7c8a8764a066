// Binary wire codecs for the STM protocol payloads (see DESIGN.md "Wire
// format" for the type-ID map). AppendWire is append-style and alloc-free;
// ReadWire decodes the fresh payload the transport hands a handler.
package stm

import (
	"fmt"
	"time"

	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
	"dstm/internal/wire"
)

// Wire type IDs 10–39, and 60–69 past them, are reserved for STM payloads.
// They are a static protocol: never renumber, only append. IDs 10–15, 17
// and 18 (payloads of the retired per-object retrieve/check/acquire/commit
// RPCs), 16 (the retired remote release), 22 and 24 (the acquire and check
// replies without the not-here answer), 23 and 35 (the check request and the
// acquire reply, from before acquire and validation shared one request and
// one reply type), 25 and 26 (the publish pair that carried values and no
// move list), 27–30 (the retired MVCC snapshot-read payloads), 31 and 32
// (the retrieve pair without the lock identity and the locked flag), 21 and
// 36 (the validation pair from before a validation was a prefetch
// retrieve), 33 and 34 (the publish pair that surrendered objects, before a
// lock took them) and 38 (the retrieve reply without the surrendered
// queues) are reserved: never reuse them, or a frame from an old peer would
// mis-decode into a live type.
const (
	wireIDPushMsg            wire.ID = 19
	wireIDDeclineMsg         wire.ID = 20
	wireIDRetrieveReq        wire.ID = 37
	wireIDRetrieveResp       wire.ID = 39
	wireIDCommitObjBatchReq  wire.ID = 60
	wireIDCommitObjBatchResp wire.ID = 61
)

func init() {
	wire.Register(wireIDPushMsg, pushMsg{})
	wire.Register(wireIDDeclineMsg, declineMsg{})
	wire.Register(wireIDCommitObjBatchReq, commitObjBatchReq{})
	wire.Register(wireIDCommitObjBatchResp, commitObjBatchResp{})
	wire.Register(wireIDRetrieveReq, retrieveReq{})
	wire.Register(wireIDRetrieveResp, retrieveResp{})
}

func appendVersion(b []byte, v object.Version) []byte {
	b = wire.AppendUvarint(b, v.Clock)
	return wire.AppendVarint(b, int64(v.Node))
}

func readVersion(r *wire.Reader) object.Version {
	return object.Version{Clock: r.Uvarint(), Node: int32(r.Varint())}
}

// readValue decodes an object value and enforces that the decoded payload
// implements object.Value.
func readValue(r *wire.Reader) object.Value {
	av := r.Any()
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

func readSchedQueue(r *wire.Reader) []sched.Request {
	qs := wire.MakeSlice[sched.Request](r.SliceLen(7))
	for i := range qs {
		readSchedRequest(r, &qs[i])
	}
	return qs
}

// ---------------------------------------------------------------------------
// Per-payload codecs. AppendWire has a value receiver (no escape).

func (q retrieveReq) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendUvarint(b, q.TxID)
	b = wire.AppendUvarint(b, uint64(q.Mode))
	b = wire.AppendVarint(b, int64(q.MyCL))
	b = wire.AppendVarint(b, int64(q.Elapsed))
	b = wire.AppendVarint(b, int64(q.Remain))
	b = wire.AppendBool(b, q.Prefetch)
	b = wire.AppendUvarint(b, q.LockID)
	b = wire.AppendStrings(b, q.Oids)
	return wire.AppendStrings(b, q.Taking), nil
}

func (retrieveReq) ReadWire(r *wire.Reader) any {
	return retrieveReq{TxID: r.Uvarint(), Mode: sched.Mode(r.Uvarint()), MyCL: int(r.Varint()),
		Elapsed: time.Duration(r.Varint()), Remain: time.Duration(r.Varint()), Prefetch: r.Bool(),
		LockID: r.Uvarint(), Oids: wire.ReadStrings[object.ID](r), Taking: wire.ReadStrings[object.ID](r)}
}

func (q retrieveResp) AppendWire(b []byte) ([]byte, error) {
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
		b = appendSchedQueue(b, res.Queue)
	}
	b = wire.AppendUvarint(b, q.OwnerClock)
	return wire.AppendBool(b, q.Locked), nil
}

func (retrieveResp) ReadWire(r *wire.Reader) any {
	q := retrieveResp{Results: wire.MakeSlice[retrieveResult](r.SliceLen(8))}
	for i := range q.Results {
		res := &q.Results[i]
		res.Status = status(r.Uvarint())
		res.Value = readValue(r)
		res.Version = readVersion(r)
		res.RemoteCL = int(r.Varint())
		res.Backoff = time.Duration(r.Varint())
		res.MovedTo = transport.NodeID(r.Varint())
		res.Queue = readSchedQueue(r)
	}
	q.OwnerClock = r.Uvarint()
	q.Locked = r.Bool()
	return q
}

func (q pushMsg) AppendWire(b []byte) ([]byte, error) {
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

func (pushMsg) ReadWire(r *wire.Reader) any {
	return pushMsg{Oid: object.ID(r.String()), TxID: r.Uvarint(), Value: readValue(r),
		Version: readVersion(r), Owner: transport.NodeID(r.Varint()), OwnerClock: r.Uvarint(),
		RemoteCL: int(r.Varint())}
}

func (q declineMsg) AppendWire(b []byte) ([]byte, error) {
	return wire.AppendString(b, string(q.Oid)), nil
}

func (declineMsg) ReadWire(r *wire.Reader) any { return declineMsg{Oid: object.ID(r.String())} }

func (q commitObjBatchReq) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendUvarint(b, q.TxID)
	b = wire.AppendVarint(b, int64(q.NewOwner))
	return wire.AppendStrings(b, q.Moved), nil
}

func (commitObjBatchReq) ReadWire(r *wire.Reader) any {
	return commitObjBatchReq{TxID: r.Uvarint(), NewOwner: transport.NodeID(r.Varint()),
		Moved: wire.ReadStrings[object.ID](r)}
}

func (q commitObjBatchResp) AppendWire(b []byte) ([]byte, error) {
	return wire.AppendString(b, q.DirErr), nil
}

func (commitObjBatchResp) ReadWire(r *wire.Reader) any { return commitObjBatchResp{DirErr: r.String()} }

// benchOids returns n recurring object IDs shaped like real ones.
func benchOids(n int) []object.ID {
	oids := make([]object.ID, n)
	for i := range oids {
		oids[i] = object.ID(fmt.Sprintf("bank/acct/n3/%d", i))
	}
	return oids
}

// WirePumpPayload returns a representative commit-pipeline payload (an
// 8-entry validation request: a prefetch retrieve on KindCheckVersionBatch)
// for transport-level pump benchmarks (bench/micro.go sizes wire.msg_bytes
// from it, so its value is fixed).
func WirePumpPayload() any {
	return retrieveReq{TxID: 77, Mode: sched.Read, Prefetch: true, Oids: benchOids(8)}
}
