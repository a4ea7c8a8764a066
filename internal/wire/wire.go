// Package wire is the hand-rolled binary codec for everything that
// crosses a real socket: transport frames, the RPC envelope, the stm/cc
// protocol payloads, and the application object values they carry.
//
// Design goals, in order:
//
//  1. Zero allocations on the hot encode path: every encoder is an
//     append-style function growing a caller-owned []byte, so a transport
//     connection encodes straight into its coalescing buffer.
//  2. Zero steady-state allocations on decode: the Reader hands out
//     interned strings (object IDs recur; a bounded intern table makes
//     the second sight of an ID free) and payload decoders reuse the
//     slices and values of the struct they decode into.
//  3. Robustness: a malformed frame from a broken peer must produce an
//     error, never a panic or an unbounded allocation. Every read is
//     bounds-checked and every length is capped by the bytes remaining.
//
// Integers travel as LEB128 uvarints (signed values zig-zag first), so
// small clocks, counts, and node IDs cost one byte. Strings and byte
// blobs are length-prefixed. Interface-typed values (message payloads,
// object values) are tagged with a registered type ID; types without a
// registered codec fall back to an embedded encoding/gob blob, so custom
// application values keep working over TCP without hand-written codecs —
// they just pay gob's price.
package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
)

// ID tags a registered payload type on the wire.
type ID uint64

// Reserved type IDs.
const (
	// IDNil encodes a nil interface value.
	IDNil ID = 0
	// IDGob wraps a gob-encoded blob: the escape hatch for types without
	// a registered binary codec.
	IDGob ID = 1
)

// ErrTruncated is reported when the input ends inside a value.
var ErrTruncated = errors.New("wire: truncated input")

// ErrMalformed is reported for structurally invalid input (bad lengths,
// unknown type IDs, invalid bools).
var ErrMalformed = errors.New("wire: malformed input")

// internCap bounds the Reader's string intern table so hostile input
// cannot grow it without bound.
const internCap = 4096

// maxInternedLen bounds the length of strings worth interning; longer
// ones are almost certainly payload data, not recurring identifiers.
const maxInternedLen = 256

// ---------------------------------------------------------------------------
// Append-style encoders. All are alloc-free given sufficient capacity.

// AppendUvarint appends v as a LEB128 uvarint.
func AppendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// AppendVarint appends v zig-zag encoded.
func AppendVarint(b []byte, v int64) []byte {
	return AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

// AppendBool appends a single 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-prefixed byte blob.
func AppendBytes(b []byte, p []byte) []byte {
	b = AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// UvarintLen returns the encoded size of v, for pre-sizing buffers.
func UvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// ---------------------------------------------------------------------------
// Reader.

// Reader decodes one buffer of wire data. It is reusable via Reset; the
// string intern table survives resets, so a long-lived Reader (one per
// connection) decodes recurring object IDs without allocating.
//
// All read methods are total: on malformed input they record the first
// error, return zero values, and every subsequent read short-circuits.
// Callers check Err once at the end of a payload.
type Reader struct {
	buf    []byte
	off    int
	err    error
	intern map[string]string
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset points the Reader at a new buffer, clearing the error but
// keeping the intern table.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.off = 0
	r.err = nil
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Fail records a decode error from a payload codec (first error wins),
// e.g. a type-level invariant the primitive readers cannot see.
func (r *Reader) Fail(err error) { r.fail(err) }

// Len returns the number of bytes not yet consumed.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads a LEB128 uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	var shift uint
	for {
		if r.off >= len(r.buf) {
			r.fail(ErrTruncated)
			return 0
		}
		c := r.buf[r.off]
		r.off++
		if shift == 63 && c > 1 {
			r.fail(fmt.Errorf("%w: uvarint overflow", ErrMalformed))
			return 0
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
		shift += 7
		if shift > 63 {
			r.fail(fmt.Errorf("%w: uvarint overflow", ErrMalformed))
			return 0
		}
	}
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bool reads a strict 0/1 byte.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return false
	}
	c := r.buf[r.off]
	r.off++
	switch c {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("%w: bool byte %#x", ErrMalformed, c))
		return false
	}
}

// take consumes n bytes and returns a view into the buffer.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail(ErrTruncated)
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

// String reads a length-prefixed string, interning short values: the
// second decode of a recurring object ID is a map hit, not an allocation.
func (r *Reader) String() string {
	n := int(r.Uvarint())
	p := r.take(n)
	if r.err != nil {
		return ""
	}
	if n == 0 {
		return ""
	}
	if n <= maxInternedLen {
		if r.intern == nil {
			r.intern = make(map[string]string, 64)
		}
		if s, ok := r.intern[string(p)]; ok { // compiler elides the conversion
			return s
		}
		s := string(p)
		if len(r.intern) < internCap {
			r.intern[s] = s
		}
		return s
	}
	return string(p)
}

// Bytes reads a length-prefixed blob, copying it out of the buffer (the
// buffer is reused by the transport read loop, so views must not escape).
func (r *Reader) Bytes() []byte {
	n := int(r.Uvarint())
	p := r.take(n)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// SliceLen reads a slice length and validates it against the bytes
// remaining, with each element costing at least minElemBytes: a hostile
// length cannot force an oversized allocation.
func (r *Reader) SliceLen(minElemBytes int) int {
	n := int(r.Uvarint())
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n < 0 || n*minElemBytes > r.Len() {
		r.fail(fmt.Errorf("%w: slice length %d exceeds %d bytes remaining", ErrMalformed, n, r.Len()))
		return 0
	}
	return n
}

// Grow returns s resized to n elements, reusing its backing array when
// capacity allows (retained elements feed value-reuse on decode).
func Grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// AppendStrings appends a length-prefixed list of strings (object IDs).
func AppendStrings[S ~string](b []byte, ss []S) []byte {
	b = AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, string(s))
	}
	return b
}

// ReadStrings decodes what AppendStrings wrote, into prev's backing array
// when it is large enough.
func ReadStrings[S ~string](r *Reader, prev []S) []S {
	ss := Grow(prev, r.SliceLen(1))
	for i := range ss {
		ss[i] = S(r.String())
	}
	return ss
}

// ---------------------------------------------------------------------------
// Type registry: interface-typed values on the wire.

// EncodeFunc appends v (whose concrete type the codec was registered
// for) to b. It may fail only when an embedded interface value cannot be
// encoded (e.g. a gob fallback for an unregistrable type).
type EncodeFunc func(b []byte, v any) ([]byte, error)

// DecodeFunc decodes one value. prev, when non-nil, is a value of the
// same concrete type that may be overwritten and returned to avoid
// allocating (steady-state decode of a reused struct).
type DecodeFunc func(r *Reader, prev any) any

type codecEntry struct {
	id  ID
	typ reflect.Type
	enc EncodeFunc
	dec DecodeFunc
}

var (
	codecsByType = map[reflect.Type]*codecEntry{}
	codecsByID   = map[ID]*codecEntry{}
)

// Register installs the binary codec for prototype's concrete type under
// the given type ID. IDs are a static protocol (see DESIGN.md "Wire
// format"); duplicates panic. Call from init functions only.
func Register(id ID, prototype any, enc EncodeFunc, dec DecodeFunc) {
	if id == IDNil || id == IDGob {
		panic(fmt.Sprintf("wire: type ID %d is reserved", id))
	}
	t := reflect.TypeOf(prototype)
	if t == nil {
		panic("wire: cannot register nil prototype")
	}
	if _, dup := codecsByType[t]; dup {
		panic(fmt.Sprintf("wire: duplicate codec for type %v", t))
	}
	if prev, dup := codecsByID[id]; dup {
		panic(fmt.Sprintf("wire: type ID %d already used by %v", id, prev.typ))
	}
	e := &codecEntry{id: id, typ: t, enc: enc, dec: dec}
	codecsByType[t] = e
	codecsByID[id] = e
}

// RegisterGobFallbackType registers a concrete type with encoding/gob so
// it can travel through the IDGob escape hatch. transport.RegisterPayload
// and object.Register route here.
func RegisterGobFallbackType(v any) { gob.Register(v) }

// Registered reports whether v's concrete type has a binary codec (nil
// counts: it has a fixed encoding).
func Registered(v any) bool {
	if v == nil {
		return true
	}
	_, ok := codecsByType[reflect.TypeOf(v)]
	return ok
}

// AppendAny appends an interface value: a type ID followed by the
// registered encoding, or a gob blob for unregistered types. The
// registered path performs no allocations beyond growing b.
func AppendAny(b []byte, v any) ([]byte, error) {
	if v == nil {
		return AppendUvarint(b, uint64(IDNil)), nil
	}
	if e, ok := codecsByType[reflect.TypeOf(v)]; ok {
		b = AppendUvarint(b, uint64(e.id))
		return e.enc(b, v)
	}
	return appendGobFallback(b, v)
}

// appendGobFallback wraps v in a length-prefixed gob blob. It is kept out
// of AppendAny so taking &v here does not force AppendAny's parameter to
// escape (which would cost one allocation on the registered fast path).
func appendGobFallback(b []byte, v any) ([]byte, error) {
	var bb bytes.Buffer
	if err := gob.NewEncoder(&bb).Encode(&v); err != nil {
		return b, fmt.Errorf("wire: gob fallback for %T: %w", v, err)
	}
	b = AppendUvarint(b, uint64(IDGob))
	return AppendBytes(b, bb.Bytes()), nil
}

// Any decodes an interface value encoded by AppendAny. prev, when it has
// the same concrete type as the encoded value, may be reused by the
// registered decoder.
func (r *Reader) Any(prev any) any {
	id := ID(r.Uvarint())
	if r.err != nil {
		return nil
	}
	switch id {
	case IDNil:
		return nil
	case IDGob:
		n := int(r.Uvarint())
		p := r.take(n)
		if r.err != nil {
			return nil
		}
		var v any
		if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&v); err != nil {
			r.fail(fmt.Errorf("%w: gob payload: %v", ErrMalformed, err))
			return nil
		}
		return v
	}
	e, ok := codecsByID[id]
	if !ok {
		r.fail(fmt.Errorf("%w: unknown wire type ID %d", ErrMalformed, id))
		return nil
	}
	if prev != nil && reflect.TypeOf(prev) != e.typ {
		prev = nil
	}
	return e.dec(r, prev)
}
