package stm

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/transport"
	"dstm/internal/wire"
)

// fuzzVal is an object.Value with a binary codec, so protocol payloads
// carrying interface-typed values travel both formats in this test.
type fuzzVal struct{ X int64 }

func (v fuzzVal) Copy() object.Value { return v }

func (v fuzzVal) AppendWire(b []byte) ([]byte, error) { return wire.AppendVarint(b, v.X), nil }

func (fuzzVal) ReadWire(r *wire.Reader) any { return fuzzVal{X: r.Varint()} }

// wireIDFuzzVal is test-only (90–99 are never assigned outside tests).
const wireIDFuzzVal wire.ID = 98

func init() {
	wire.Register(wireIDFuzzVal, fuzzVal{})
	// gob, the reference these round trips compare against, must know every
	// concrete type an interface field carries.
	for _, v := range []any{fuzzVal{}, retrieveReq{}, retrieveResp{}, pushMsg{}, verBatchReq{},
		answersResp{}, commitObjBatchReq{}, commitObjBatchResp{}} {
		gob.Register(v)
	}
}

// roundTrip passes a message carrying payload through BOTH wire formats —
// gob (the reference) and the binary codec — and requires them to
// agree: the binary format must be a drop-in replacement, so every fuzz
// target in this file doubles as a differential oracle. It returns the
// gob-decoded payload.
func roundTrip(t *testing.T, payload any) any {
	t.Helper()
	in := transport.Message{From: 1, To: 2, Kind: KindRetrieve, Payload: payload}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
		t.Fatalf("encode %T: %v", payload, err)
	}
	var out transport.Message
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("decode %T: %v", payload, err)
	}

	enc, err := transport.AppendMessage(nil, &in)
	if err != nil {
		t.Fatalf("binary encode %T: %v", payload, err)
	}
	var bout transport.Message
	if err := transport.DecodeMessage(wire.NewReader(enc), &bout); err != nil {
		t.Fatalf("binary decode %T: %v", payload, err)
	}
	if !reflect.DeepEqual(bout.Payload, out.Payload) {
		t.Fatalf("binary and gob decodes disagree for %T:\n gob:    %+v\n binary: %+v",
			payload, out.Payload, bout.Payload)
	}
	return out.Payload
}

// FuzzRetrieveRoundTrip round-trips the per-owner retrieve — the protocol's
// hottest message pair — through both wire formats. Every field must
// survive: a corrupted Elapsed or Backoff would silently skew the RTS
// scheduling decision at the owner, a shifted Results slice would hand the
// requester the wrong object under the right key, and a corrupted MovedTo
// would send the next hop to the wrong node. A lost LockID would leave an
// announced write set unlocked, and a flipped Locked would make the
// requester trust copies nobody locked.
func FuzzRetrieveRoundTrip(f *testing.F) {
	f.Add("obj/a", "obj/b", uint64(1), uint8(1), 3, int64(5e6), int64(2e6), uint8(0), uint8(2), int64(7e6), uint64(9), int32(1), int64(11), int32(2), false, uint64(0), false)
	f.Add("", "x", uint64(0), uint8(0), -1, int64(-1), int64(0), uint8(4), uint8(3), int64(1)<<62, ^uint64(0), int32(-2), int64(0), int32(-1), true, uint64(1)<<41|7, true)
	f.Fuzz(func(t *testing.T, oidA, oidB string, tx uint64, mode uint8, myCL int, elapsed, remain int64,
		statusA, statusB uint8, backoff int64, ownClock uint64, vnode int32, val int64, movedTo int32, prefetch bool,
		lockID uint64, locked bool) {
		req := retrieveReq{
			TxID: tx, Mode: sched.Mode(mode), MyCL: myCL,
			Elapsed: time.Duration(elapsed), Remain: time.Duration(remain), Prefetch: prefetch, LockID: lockID,
			Oids: []object.ID{object.ID(oidA), object.ID(oidB)},
		}
		if got := roundTrip(t, req).(retrieveReq); !reflect.DeepEqual(got, req) {
			t.Fatalf("retrieveReq changed: %+v -> %+v", req, got)
		}
		resp := retrieveResp{
			Results: []retrieveResult{
				{Status: status(statusA), Value: fuzzVal{X: val},
					Version: object.Version{Clock: ownClock, Node: vnode}, RemoteCL: myCL},
				{Status: status(statusB), RemoteCL: -myCL,
					Backoff: time.Duration(backoff), MovedTo: transport.NodeID(movedTo)},
			},
			OwnerClock: ownClock,
			Locked:     locked,
		}
		if got := roundTrip(t, resp).(retrieveResp); !reflect.DeepEqual(got, resp) {
			t.Fatalf("retrieveResp changed: %+v -> %+v", resp, got)
		}
	})
}

// FuzzCommitPushRoundTrip round-trips the push that hands a migrated object
// to a parked transaction. The trailing arguments are unused: the signature
// is fixed by the checked-in corpus. FuzzCommitObjBatchRoundTrip covers the
// migration request and its queue-carrying reply.
func FuzzCommitPushRoundTrip(f *testing.F) {
	f.Add("obj/x", uint64(3), uint64(17), int32(2), int64(-4), uint64(23), int32(0), uint8(1), int64(6e6), int64(8e6))
	f.Add("", uint64(0), uint64(0), int32(-1), int64(0), ^uint64(0), int32(5), uint8(0), int64(0), int64(-1))
	f.Fuzz(func(t *testing.T, oid string, tx, verClock uint64, newOwner int32, val int64,
		pushClock uint64, qnode int32, _ uint8, _, _ int64) {
		push := pushMsg{
			Oid: object.ID(oid), TxID: tx, Value: fuzzVal{X: val},
			Version: object.Version{Clock: verClock, Node: newOwner},
			Owner:   transport.NodeID(newOwner), OwnerClock: pushClock, RemoteCL: int(qnode),
		}
		if got := roundTrip(t, push).(pushMsg); got != push {
			t.Fatalf("pushMsg changed: %+v -> %+v", push, got)
		}
	})
}

// FuzzAcquireCheckBatchRoundTrip round-trips the request and the reply that
// acquire and validation share. The per-entry answers must survive verbatim
// and stay parallel to the request entries: a shifted or truncated Results
// slice would make the committer misattribute which entry refused the batch
// (and hence which transaction to abort), a corrupted status would make it
// read a refused acquire as applied, and a corrupted MovedTo would send the
// next wave to the wrong node.
func FuzzAcquireCheckBatchRoundTrip(f *testing.F) {
	f.Add("obj/a", "obj/b", uint64(7), uint64(5), int32(1), byte(statusStale), byte(statusMoved), int32(2))
	f.Add("", "x", uint64(0), ^uint64(0), int32(-3), byte(statusOK), byte(statusNotOwner), int32(-1))
	f.Fuzz(func(t *testing.T, oidA, oidB string, tx, verClock uint64, vnode int32,
		statusA, statusB byte, movedTo int32) {
		req := verBatchReq{TxID: tx, Entries: []verEntry{
			{Oid: object.ID(oidA), Ver: object.Version{Clock: verClock, Node: vnode}},
			{Oid: object.ID(oidB), Ver: object.Version{Clock: ^verClock, Node: -vnode}},
		}}
		if got := roundTrip(t, req).(verBatchReq); !reflect.DeepEqual(got, req) {
			t.Fatalf("verBatchReq changed: %+v -> %+v", req, got)
		}
		resp := answersResp{Results: []answer{
			{Status: status(statusA), MovedTo: transport.NodeID(movedTo)},
			{Status: status(statusB), MovedTo: transport.NodeID(-movedTo)},
		}}
		if got := roundTrip(t, resp).(answersResp); !reflect.DeepEqual(got, resp) {
			t.Fatalf("answersResp changed: %+v -> %+v", resp, got)
		}
	})
}

// FuzzCommitObjBatchRoundTrip round-trips the publish message: the request
// naming what one node surrenders and everything the commit moved — two lists
// that must not bleed into each other, or a home would be told of a move that
// did not happen — and the reply whose per-entry results mix surrendered
// requester queues with per-entry error strings, beside the directory error.
func FuzzCommitObjBatchRoundTrip(f *testing.F) {
	f.Add("obj/x", "obj/y", "obj/z", uint64(3), int32(2), byte(1), int64(6e6), "", "")
	f.Add("", "q", "", ^uint64(0), int32(-1), byte(0), int64(-1), "store: gone", "cc: update for unregistered object \"q\"")
	f.Fuzz(func(t *testing.T, oidA, oidB, oidC string, tx uint64, newOwner int32,
		qmode byte, qElapsed int64, errStr, dirErr string) {
		req := commitObjBatchReq{
			TxID:     tx,
			NewOwner: transport.NodeID(newOwner),
			Oids:     []object.ID{object.ID(oidA)},
			Moved:    []object.ID{object.ID(oidA), object.ID(oidB), object.ID(oidC)},
		}
		if got := roundTrip(t, req).(commitObjBatchReq); !reflect.DeepEqual(got, req) {
			t.Fatalf("commitObjBatchReq changed: %+v -> %+v", req, got)
		}
		// A node reached only as a home surrenders nothing.
		req.Oids = nil
		if got := roundTrip(t, req).(commitObjBatchReq); !reflect.DeepEqual(got, req) {
			t.Fatalf("commitObjBatchReq (home only) changed: %+v -> %+v", req, got)
		}

		resp := commitObjBatchResp{Results: []commitObjBatchResult{
			{Queue: []sched.Request{{
				Oid: object.ID(oidA), TxID: tx, Node: transport.NodeID(newOwner),
				Mode: sched.Mode(qmode), MyCL: int(newOwner),
				Elapsed: time.Duration(qElapsed), ExpectedRemaining: time.Duration(-qElapsed),
			}}},
			{Err: errStr},
		}, DirErr: dirErr}
		got := roundTrip(t, resp).(commitObjBatchResp)
		if len(got.Results) != 2 || !reflect.DeepEqual(got.Results[0].Queue, resp.Results[0].Queue) ||
			got.Results[1].Err != errStr || got.Results[0].Err != "" || got.DirErr != dirErr {
			t.Fatalf("commitObjBatchResp changed: %+v -> %+v", resp, got)
		}
	})
}
