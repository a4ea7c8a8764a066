package transport

import (
	"fmt"

	"dstm/internal/wire"
)

// Binary frame body layout (the TCP transport length-prefixes each body
// with a u32 big-endian byte count; see DESIGN.md "Wire format"):
//
//	ver:u8(=3)  from:varint  to:varint  clock:uvarint  kind:uvarint
//	corr:uvarint  floor:uvarint  flags:u8(bit0=IsReply, bit1=Piggyback)
//	payload:any  [piggyback:any]
//
// The payload, and the piggyback when flags bit 1 is set, is a wire type ID
// followed by that type's binary encoding (wire.AppendAny). A frame of any
// other version is refused.
const frameVersion = 3

// flag bits of the frame header.
const (
	flagIsReply   = 1 << 0
	flagPiggyback = 1 << 1
)

// AppendMessage appends m's binary frame body to b. It allocates nothing
// beyond growing b, and fails when the payload's or the piggyback's type has
// no wire codec.
func AppendMessage(b []byte, m *Message) ([]byte, error) {
	b = append(b, frameVersion)
	b = wire.AppendVarint(b, int64(m.From))
	b = wire.AppendVarint(b, int64(m.To))
	b = wire.AppendUvarint(b, m.Clock)
	b = wire.AppendUvarint(b, uint64(m.Kind))
	b = wire.AppendUvarint(b, m.Corr)
	b = wire.AppendUvarint(b, m.Floor)
	var flags byte
	if m.IsReply {
		flags |= flagIsReply
	}
	if m.Piggyback != nil {
		flags |= flagPiggyback
	}
	b = append(b, flags)
	b, err := wire.AppendAny(b, m.Payload)
	if err != nil || m.Piggyback == nil {
		return b, err
	}
	return wire.AppendAny(b, m.Piggyback)
}

// DecodeMessage decodes one frame body into m using r (whose intern
// table makes recurring object IDs allocation-free). It returns an error
// — never panics — on malformed input.
func DecodeMessage(r *wire.Reader, m *Message) error {
	if r.Len() < 1 {
		return wire.ErrTruncated
	}
	ver := r.Uvarint()
	if ver != frameVersion {
		return fmt.Errorf("%w: frame version %d", wire.ErrMalformed, ver)
	}
	m.From = NodeID(r.Varint())
	m.To = NodeID(r.Varint())
	m.Clock = r.Uvarint()
	kind := r.Uvarint()
	if kind > 1<<16-1 {
		return fmt.Errorf("%w: kind %d out of range", wire.ErrMalformed, kind)
	}
	m.Kind = Kind(kind)
	m.Corr = r.Uvarint()
	m.Floor = r.Uvarint()
	flags := r.Uvarint()
	if flags > 0xff {
		return fmt.Errorf("%w: flag byte %d", wire.ErrMalformed, flags)
	}
	m.IsReply = flags&flagIsReply != 0
	m.Payload = r.Any()
	if flags&flagPiggyback != 0 {
		m.Piggyback = r.Any()
	}
	return r.Err()
}
