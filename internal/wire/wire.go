// Package wire is the hand-rolled binary codec for everything that
// crosses a real socket: transport frames, the RPC envelope, the stm/cc
// protocol payloads, and the application object values they carry.
//
// Design goals, in order:
//
//  1. Zero allocations on the hot encode path: every encoder is an
//     append-style function growing a caller-owned []byte, so a transport
//     connection encodes straight into its coalescing buffer.
//  2. Cheap decode: the Reader hands out interned strings (object IDs
//     recur; a bounded intern table makes the second sight of an ID free),
//     so a decoded payload allocates only itself and its slices.
//  3. Robustness: a malformed frame from a broken peer must produce an
//     error, never a panic or an unbounded allocation. Every read is
//     bounds-checked and every length is capped by the bytes remaining.
//
// Integers travel as LEB128 uvarints (signed values zig-zag first), so
// small clocks, counts, and node IDs cost one byte. Strings and byte
// blobs are length-prefixed. Interface-typed values (message payloads,
// object values) are tagged with the type ID their Codec was registered
// under; a value of a type without one cannot be encoded.
package wire

import (
	"errors"
	"fmt"
	"reflect"
)

// ID tags a registered payload type on the wire.
type ID uint64

// IDNil encodes a nil interface value. ID 1 is retired (it tagged the gob
// blob of a type without a binary codec) and stays unregistered, so a
// frame carrying it fails as an unknown type.
const IDNil ID = 0

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

// MakeSlice returns a fresh slice of n elements for a decoder to fill, nil
// when n is 0: an empty list decodes as the zero value, as it does in gob.
func MakeSlice[T any](n int) []T {
	if n == 0 {
		return nil
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

// ReadStrings decodes what AppendStrings wrote.
func ReadStrings[S ~string](r *Reader) []S {
	ss := MakeSlice[S](r.SliceLen(1))
	for i := range ss {
		ss[i] = S(r.String())
	}
	return ss
}

// ---------------------------------------------------------------------------
// Type registry: interface-typed values on the wire.

// Codec is what a type implements to cross the wire. AppendWire appends
// the value's encoding to b; it fails only when a value the type carries
// has no codec. ReadWire decodes one value of the receiver's type and
// returns it fresh: the receiver is the prototype given to Register, and
// is not read.
type Codec interface {
	AppendWire(b []byte) ([]byte, error)
	ReadWire(r *Reader) any
}

var (
	idsByType  = map[reflect.Type]ID{}
	codecsByID = map[ID]Codec{}
)

// Register installs prototype's concrete type under the given type ID. IDs
// are a static protocol (see DESIGN.md "Wire format"); duplicates panic.
// Call from init functions only.
func Register(id ID, prototype Codec) {
	if id == IDNil {
		panic("wire: type ID 0 is reserved for nil")
	}
	t := reflect.TypeOf(prototype)
	if t == nil {
		panic("wire: cannot register nil prototype")
	}
	if _, dup := idsByType[t]; dup {
		panic(fmt.Sprintf("wire: duplicate codec for type %v", t))
	}
	if prev, dup := codecsByID[id]; dup {
		panic(fmt.Sprintf("wire: type ID %d already used by %T", id, prev))
	}
	idsByType[t] = id
	codecsByID[id] = prototype
}

// AppendAny appends an interface value: its type ID followed by its
// encoding. A value whose type was never registered is an error. It
// performs no allocations beyond growing b.
func AppendAny(b []byte, v any) ([]byte, error) {
	if v == nil {
		return AppendUvarint(b, uint64(IDNil)), nil
	}
	id, ok := idsByType[reflect.TypeOf(v)]
	if !ok {
		return b, fmt.Errorf("wire: no codec registered for %T", v)
	}
	return v.(Codec).AppendWire(AppendUvarint(b, uint64(id)))
}

// Any decodes an interface value encoded by AppendAny into a fresh value.
func (r *Reader) Any() any {
	id := ID(r.Uvarint())
	if r.err != nil || id == IDNil {
		return nil
	}
	c, ok := codecsByID[id]
	if !ok {
		r.fail(fmt.Errorf("%w: unknown wire type ID %d", ErrMalformed, id))
		return nil
	}
	return c.ReadWire(r)
}
