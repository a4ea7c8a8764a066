package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestUvarintRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<32 - 1, 1 << 62, math.MaxUint64}
	var b []byte
	for _, v := range vals {
		b = AppendUvarint(b, v)
	}
	r := NewReader(b)
	for _, want := range vals {
		if got := r.Uvarint(); got != want {
			t.Fatalf("uvarint %d decoded as %d", want, got)
		}
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("err=%v leftover=%d", r.Err(), r.Len())
	}
}

func TestVarintRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64}
	var b []byte
	for _, v := range vals {
		b = AppendVarint(b, v)
	}
	r := NewReader(b)
	for _, want := range vals {
		if got := r.Varint(); got != want {
			t.Fatalf("varint %d decoded as %d", want, got)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestStringBytesBool(t *testing.T) {
	var b []byte
	b = AppendString(b, "bank/acct/7")
	b = AppendString(b, "")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBytes(b, nil)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	r := NewReader(b)
	if s := r.String(); s != "bank/acct/7" {
		t.Fatalf("string: %q", s)
	}
	if s := r.String(); s != "" {
		t.Fatalf("empty string: %q", s)
	}
	if p := r.Bytes(); !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("bytes: %v", p)
	}
	if p := r.Bytes(); p != nil {
		t.Fatalf("nil bytes: %v", p)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool order")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

// TestStringInterning: decoding the same string twice from separate
// buffers must return the identical backing string without allocating.
func TestStringInterning(t *testing.T) {
	enc := AppendString(nil, "obj/recurring")
	r := NewReader(enc)
	first := r.String()
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(enc)
		if s := r.String(); s != first {
			t.Fatalf("intern changed value: %q", s)
		}
	})
	if allocs != 0 {
		t.Fatalf("interned string decode allocates %.1f/op", allocs)
	}
}

func TestTruncatedInputs(t *testing.T) {
	full := AppendString(AppendUvarint(nil, 300), "hello")
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Uvarint()
		_ = r.String()
		if r.Err() == nil {
			t.Fatalf("cut at %d: no error", cut)
		}
	}
}

func TestSliceLenBounds(t *testing.T) {
	// Claimed length far beyond the remaining bytes must fail, not
	// allocate.
	b := AppendUvarint(nil, 1<<40)
	r := NewReader(b)
	if n := r.SliceLen(4); n != 0 || r.Err() == nil {
		t.Fatalf("oversized slice len accepted: n=%d err=%v", n, r.Err())
	}
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("want ErrMalformed, got %v", r.Err())
	}
}

func TestBoolStrictness(t *testing.T) {
	r := NewReader([]byte{2})
	if r.Bool() || r.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func TestUvarintOverflow(t *testing.T) {
	// 10 continuation bytes with high bits: > 64 bits of payload.
	r := NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	r.Uvarint()
	if r.Err() == nil {
		t.Fatal("uvarint overflow accepted")
	}
}

type testVal struct {
	N int64
	S string
}

func (v testVal) AppendWire(b []byte) ([]byte, error) {
	return AppendString(AppendVarint(b, v.N), v.S), nil
}

func (testVal) ReadWire(r *Reader) any { return testVal{N: r.Varint(), S: r.String()} }

func init() { Register(9001, testVal{}) }

// unregistered has no codec.
type unregistered struct{ X int32 }

func TestAnyRegisteredRoundTrip(t *testing.T) {
	in := testVal{N: -7, S: "x"}
	b, err := AppendAny(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(b)
	out := r.Any()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if got, ok := out.(testVal); !ok || got != in {
		t.Fatalf("any round trip: %#v -> %#v", in, out)
	}
}

func TestAnyNil(t *testing.T) {
	b, err := AppendAny(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(b)
	if out := r.Any(); out != nil || r.Err() != nil {
		t.Fatalf("nil any: %v err=%v", out, r.Err())
	}
}

// TestAnyUnregistered: a value whose type has no codec cannot be encoded —
// AppendAny reports it and leaves the buffer as it was — and ID 1, the
// retired gob fallback's tag, decodes as unknown.
func TestAnyUnregistered(t *testing.T) {
	b, err := AppendAny([]byte{7}, unregistered{X: 42})
	if err == nil || !bytes.Equal(b, []byte{7}) {
		t.Fatalf("AppendAny of an unregistered type: %v, err %v; want [7] and an error", b, err)
	}
	r := NewReader(AppendUvarint(nil, 1))
	if out := r.Any(); out != nil || !errors.Is(r.Err(), ErrMalformed) || !strings.Contains(r.Err().Error(), "unknown wire type ID") {
		t.Fatalf("wire ID 1 decoded to %v, err %v; want unknown wire type ID", out, r.Err())
	}
}

func TestAnyUnknownID(t *testing.T) {
	b := AppendUvarint(nil, 54321)
	r := NewReader(b)
	if out := r.Any(); out != nil || r.Err() == nil {
		t.Fatalf("unknown id: out=%v err=%v", out, r.Err())
	}
}

// TestAppendAnyZeroAlloc: the registered encode path must not allocate
// beyond growing the destination buffer.
func TestAppendAnyZeroAlloc(t *testing.T) {
	var v any = testVal{N: 3, S: "steady"}
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(200, func() {
		b, err := AppendAny(buf[:0], v)
		if err != nil || len(b) == 0 {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendAny allocates %.1f/op on the registered path", allocs)
	}
}
