package transport

import (
	"bytes"
	"encoding/gob"
	"testing"

	"dstm/internal/wire"
)

// fuzzPayload is a payload with a binary codec, registered with gob too, for
// round-trip fuzzing of the frame codec against gob, the reference.
type fuzzPayload struct {
	S string
	B []byte
	N uint64
}

func (p fuzzPayload) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendString(b, p.S)
	b = wire.AppendBytes(b, p.B)
	return wire.AppendUvarint(b, p.N), nil
}

func (fuzzPayload) ReadWire(r *wire.Reader) any {
	return fuzzPayload{S: r.String(), B: r.Bytes(), N: r.Uvarint()}
}

func init() {
	wire.Register(wireIDFuzzPayload, fuzzPayload{})
	gob.Register(fuzzPayload{})
}

// FuzzMessageGobRoundTrip encodes a Message with gob — the reference
// encoding — checks every header field, the payload and the piggyback (when
// there is one) survive unchanged,
// and uses the result as the differential oracle for the binary frame
// codec: the in-memory and TCP transports must be interchangeable, so the
// wire format must be lossless.
func FuzzMessageGobRoundTrip(f *testing.F) {
	f.Add(int32(0), int32(1), uint64(7), uint16(10), uint64(3), uint64(2), false, "hello", []byte{1, 2}, uint64(9), false, "")
	f.Add(int32(-5), int32(1<<30), ^uint64(0), uint16(0), uint64(0), uint64(0), true, "", []byte(nil), uint64(0), false, "")
	f.Add(int32(2), int32(2), uint64(1)<<63, uint16(65535), uint64(1), ^uint64(0), true, "päck\x00", []byte("x"), ^uint64(0), false, "")
	f.Add(int32(1), int32(3), uint64(5), uint16(10), uint64(4), uint64(4), false, "req", []byte{7}, uint64(1), true, "x12")
	f.Fuzz(func(t *testing.T, from, to int32, clock uint64, kind uint16,
		corr, floor uint64, isReply bool, s string, b []byte, n uint64, hinted bool, hs string) {
		in := Message{
			From: NodeID(from), To: NodeID(to), Clock: clock,
			Kind: Kind(kind), Corr: corr, Floor: floor, IsReply: isReply,
			Payload: fuzzPayload{S: s, B: b, N: n},
		}
		if hinted {
			in.Piggyback = fuzzPayload{S: hs}
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
			t.Fatalf("encode: %v", err)
		}
		var out Message
		if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
			t.Fatalf("decode of own encoding: %v", err)
		}
		if out.From != in.From || out.To != in.To || out.Clock != in.Clock ||
			out.Kind != in.Kind || out.Corr != in.Corr || out.Floor != in.Floor || out.IsReply != in.IsReply {
			t.Fatalf("header changed: %+v -> %+v", in, out)
		}
		p, ok := out.Payload.(fuzzPayload)
		if !ok {
			t.Fatalf("payload type changed: %T", out.Payload)
		}
		// gob omits zero-valued fields, so an empty slice decodes as nil —
		// both mean "no bytes" on this wire.
		if p.S != s || p.N != n || !bytes.Equal(p.B, b) {
			t.Fatalf("payload changed: %+v -> %+v", in.Payload, p)
		}
		if hp, _ := out.Piggyback.(fuzzPayload); (out.Piggyback != nil) != hinted || hp.S != hs && hinted {
			t.Fatalf("piggyback changed: %+v -> %+v", in.Piggyback, out.Piggyback)
		}

		// Differential oracle: the binary frame codec must agree with the
		// gob decode on every header field and the payload.
		enc, err := AppendMessage(nil, &in)
		if err != nil {
			t.Fatalf("binary encode: %v", err)
		}
		var bout Message
		if err := DecodeMessage(wire.NewReader(enc), &bout); err != nil {
			t.Fatalf("binary decode of own encoding: %v", err)
		}
		if bout.From != out.From || bout.To != out.To || bout.Clock != out.Clock ||
			bout.Kind != out.Kind || bout.Corr != out.Corr || bout.Floor != out.Floor || bout.IsReply != out.IsReply {
			t.Fatalf("binary header disagrees with gob: %+v vs %+v", bout, out)
		}
		bp, ok := bout.Payload.(fuzzPayload)
		if !ok {
			t.Fatalf("binary payload type: %T", bout.Payload)
		}
		if bp.S != p.S || bp.N != p.N || !bytes.Equal(bp.B, p.B) {
			t.Fatalf("binary payload disagrees with gob: %+v vs %+v", bp, p)
		}
		if (bout.Piggyback == nil) != (out.Piggyback == nil) ||
			bout.Piggyback != nil && bout.Piggyback.(fuzzPayload).S != out.Piggyback.(fuzzPayload).S {
			t.Fatalf("binary piggyback disagrees with gob: %+v vs %+v", bout.Piggyback, out.Piggyback)
		}
	})
}

// FuzzMessageBinaryDecode feeds arbitrary bytes to the binary frame decoder
// the TCP transport runs on every inbound frame: it must reject garbage with
// an error, never a panic or an unbounded allocation.
func FuzzMessageBinaryDecode(f *testing.F) {
	valid, err := AppendMessage(nil, &Message{From: 1, To: 2, Kind: 10, Corr: 3, Floor: 2,
		Payload: fuzzPayload{S: "s", B: []byte{1}, N: 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	hinted, err := AppendMessage(nil, &Message{From: 1, To: 2, Kind: 10, Corr: 4, IsReply: true,
		Payload: fuzzPayload{S: "r"}, Piggyback: fuzzPayload{S: "x12"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hinted)
	f.Add([]byte{})
	f.Add([]byte{frameVersion, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		_ = DecodeMessage(wire.NewReader(data), &m) // must not panic
	})
}
