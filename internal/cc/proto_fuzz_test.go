package cc

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"dstm/internal/object"
	"dstm/internal/transport"
	"dstm/internal/wire"
)

// roundTrip passes a message carrying payload through BOTH wire formats —
// gob (the legacy baseline) and the binary codec — and requires them to
// agree, so every fuzz target in this file doubles as a differential
// oracle. It returns the gob-decoded payload.
func roundTrip(t *testing.T, payload any) any {
	t.Helper()
	in := transport.Message{From: 1, To: 2, Kind: KindLookupBatch, Payload: payload}
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

// FuzzDirectoryBatchRoundTrip round-trips every home-directory batch
// payload. The lookup reply's Results and the error reply's Errs must stay
// parallel to the request Oids: a shifted slice would bind an owner (or an
// error) to the wrong object at the requester.
func FuzzDirectoryBatchRoundTrip(f *testing.F) {
	f.Add("obj/a", "obj/b", int32(1), uint64(9), true, "cc: taken")
	f.Add("", "x", int32(-2), uint64(0), false, "")
	f.Fuzz(func(t *testing.T, oidA, oidB string, owner int32, tx uint64, known bool, errStr string) {
		oids := []object.ID{object.ID(oidA), object.ID(oidB)}

		lreq := lookupBatchReq{Oids: oids}
		if got := roundTrip(t, lreq).(lookupBatchReq); !reflect.DeepEqual(got, lreq) {
			t.Fatalf("lookupBatchReq changed: %+v -> %+v", lreq, got)
		}
		lresp := lookupBatchResp{Results: []lookupResp{
			{Owner: transport.NodeID(owner), Known: known},
			{Owner: transport.NodeID(-owner), Known: !known},
		}}
		if got := roundTrip(t, lresp).(lookupBatchResp); !reflect.DeepEqual(got, lresp) {
			t.Fatalf("lookupBatchResp changed: %+v -> %+v", lresp, got)
		}

		rreq := registerBatchReq{Oids: oids, Owner: transport.NodeID(owner), Tx: tx}
		if got := roundTrip(t, rreq).(registerBatchReq); !reflect.DeepEqual(got, rreq) {
			t.Fatalf("registerBatchReq changed: %+v -> %+v", rreq, got)
		}

		eresp := batchErrResp{Errs: []string{errStr, ""}}
		got := roundTrip(t, eresp).(batchErrResp)
		if len(got.Errs) != 2 || got.Errs[0] != errStr || got.Errs[1] != "" {
			t.Fatalf("batchErrResp changed: %+v -> %+v", eresp, got)
		}
	})
}
