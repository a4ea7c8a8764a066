package transport

import (
	"errors"
	"reflect"
	"testing"

	"dstm/internal/wire"
)

// TestFrameRoundTrip: a frame with a piggyback and one without it both
// decode to the message that was encoded, and only the first sets the
// piggyback flag.
func TestFrameRoundTrip(t *testing.T) {
	for _, in := range []Message{
		{From: 1, To: 2, Clock: 9, Kind: 10, Corr: 4, Floor: 3, Payload: fuzzPayload{S: "req", N: 1}},
		{From: 2, To: 1, Clock: 11, Kind: 10, Corr: 4, IsReply: true,
			Payload: fuzzPayload{S: "resp"}, Piggyback: fuzzPayload{S: "x12", N: 7}},
	} {
		enc, err := AppendMessage(nil, &in)
		if err != nil {
			t.Fatal(err)
		}
		// The flag byte ends the header: a frame of the same header with a
		// nil payload ends with it and the one-byte nil.
		hdr := in
		hdr.Payload, hdr.Piggyback = nil, nil
		h, err := AppendMessage(nil, &hdr)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := enc[len(h)-2]&flagPiggyback != 0, in.Piggyback != nil; got != want {
			t.Fatalf("piggyback flag = %v, want %v (flags %#x)", got, want, enc[len(h)-2])
		}
		var out Message
		if err := DecodeMessage(wire.NewReader(enc), &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("decoded %+v, want %+v", out, in)
		}
	}
}

// TestFrameOfAnotherVersionIsRefused: a version-2 frame — the layout
// before the piggyback — is malformed input, not a message.
func TestFrameOfAnotherVersionIsRefused(t *testing.T) {
	enc, err := AppendMessage(nil, &Message{From: 1, To: 2, Kind: 10, Corr: 4, Payload: fuzzPayload{S: "req"}})
	if err != nil {
		t.Fatal(err)
	}
	enc[0] = 2
	var out Message
	if err := DecodeMessage(wire.NewReader(enc), &out); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("a version-2 frame decoded with error %v, want it refused as malformed", err)
	}
}
