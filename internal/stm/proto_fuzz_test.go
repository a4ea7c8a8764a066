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
	for _, v := range []any{fuzzVal{}, retrieveReq{}, retrieveResp{}, pushMsg{},
		commitObjBatchReq{}, commitObjBatchResp{}} {
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
// hottest message pair, which a validation sends too — through both wire
// formats. Every field must survive: a corrupted Elapsed or Backoff would
// silently skew the RTS scheduling decision at the owner, a shifted Results
// slice would hand the requester the wrong object under the right key (and a
// validation would compare the wrong versions), and a corrupted MovedTo
// would send the next hop to the wrong node. A lost LockID would leave an
// announced write set unlocked, a flipped Locked would make the requester
// trust copies nobody locked, and a queue that left its owner with a locked
// object must arrive whole, or its requesters would wait for a push that
// never comes.
func FuzzRetrieveRoundTrip(f *testing.F) {
	f.Add("obj/a", "obj/b", uint64(1), uint8(1), 3, int64(5e6), int64(2e6), uint8(0), uint8(2), int64(7e6), uint64(9), int32(1), int64(11), int32(2), false, uint64(0), false)
	f.Add("", "x", uint64(0), uint8(0), -1, int64(-1), int64(0), uint8(4), uint8(3), int64(1)<<62, ^uint64(0), int32(-2), int64(0), int32(-1), true, uint64(1)<<41|7, true)
	// A validation: a read-mode prefetch with no lock identity, answered with
	// a copy and a denial of an entry another transaction holds locked.
	f.Add("bank/acct/n3/0", "bank/acct/n3/1", uint64(77), uint8(sched.Read), 0, int64(0), int64(0), uint8(statusOK), uint8(statusDenied), int64(0), uint64(41), int32(3), int64(7), int32(0), true, uint64(0), false)
	f.Fuzz(func(t *testing.T, oidA, oidB string, tx uint64, mode uint8, myCL int, elapsed, remain int64,
		statusA, statusB uint8, backoff int64, ownClock uint64, vnode int32, val int64, movedTo int32, prefetch bool,
		lockID uint64, locked bool) {
		req := retrieveReq{
			TxID: tx, Mode: sched.Mode(mode), MyCL: myCL,
			Elapsed: time.Duration(elapsed), Remain: time.Duration(remain), Prefetch: prefetch, LockID: lockID,
			Oids: []object.ID{object.ID(oidA), object.ID(oidB)},
		}
		if lockID != 0 {
			req.Taking = []object.ID{object.ID(oidB)}
		}
		if got := roundTrip(t, req).(retrieveReq); !reflect.DeepEqual(got, req) {
			t.Fatalf("retrieveReq changed: %+v -> %+v", req, got)
		}
		resp := retrieveResp{
			Results: []retrieveResult{
				{Status: status(statusA), Value: fuzzVal{X: val},
					Version: object.Version{Clock: ownClock, Node: vnode}, RemoteCL: myCL},
				{Status: status(statusB), RemoteCL: -myCL,
					Backoff: time.Duration(backoff), MovedTo: transport.NodeID(movedTo),
					Queue: []sched.Request{{Oid: object.ID(oidB), TxID: tx, Node: transport.NodeID(movedTo),
						Mode: sched.Mode(mode), MyCL: myCL, Elapsed: time.Duration(elapsed), ExpectedRemaining: time.Duration(remain)}}},
			},
			OwnerClock: ownClock,
			Locked:     locked,
		}
		if got := roundTrip(t, resp).(retrieveResp); !reflect.DeepEqual(got, resp) {
			t.Fatalf("retrieveResp changed: %+v -> %+v", resp, got)
		}
	})
}

// FuzzCommitPushRoundTrip round-trips the push that hands a freed object to
// a parked transaction. The trailing arguments are unused: the signature is
// fixed by the checked-in corpus. FuzzRetrieveRoundTrip covers the
// queue-carrying reply of a locking retrieve.
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

// FuzzCommitObjBatchRoundTrip round-trips the homes wave's message: the
// request naming everything a lock identity brought to its new owner — a
// corrupted list would tell a home of a move that did not happen — and the
// reply carrying the home's directory error. The fourth-last to second-last
// arguments are unused: the signature is fixed by the checked-in corpus.
func FuzzCommitObjBatchRoundTrip(f *testing.F) {
	f.Add("obj/x", "obj/y", "obj/z", uint64(3), int32(2), byte(1), int64(6e6), "", "")
	f.Add("", "q", "", ^uint64(0), int32(-1), byte(0), int64(-1), "store: gone", "cc: update for unregistered object \"q\"")
	f.Fuzz(func(t *testing.T, oidA, oidB, oidC string, tx uint64, newOwner int32,
		_ byte, _ int64, _, dirErr string) {
		req := commitObjBatchReq{
			TxID:     tx,
			NewOwner: transport.NodeID(newOwner),
			Moved:    []object.ID{object.ID(oidA), object.ID(oidB), object.ID(oidC)},
		}
		if got := roundTrip(t, req).(commitObjBatchReq); !reflect.DeepEqual(got, req) {
			t.Fatalf("commitObjBatchReq changed: %+v -> %+v", req, got)
		}
		resp := commitObjBatchResp{DirErr: dirErr}
		if got := roundTrip(t, resp).(commitObjBatchResp); got != resp {
			t.Fatalf("commitObjBatchResp changed: %+v -> %+v", resp, got)
		}
	})
}
