package cluster

import "dstm/internal/wire"

// wireIDEnvelope is the RPC reply envelope's wire type ID (see DESIGN.md
// "Wire format").
const wireIDEnvelope wire.ID = 2

func init() { wire.Register(wireIDEnvelope, envelope{}) }

// AppendWire implements wire.Codec.
func (e envelope) AppendWire(b []byte) ([]byte, error) {
	return wire.AppendAny(wire.AppendString(b, e.Err), e.Body)
}

// ReadWire implements wire.Codec.
func (envelope) ReadWire(r *wire.Reader) any { return envelope{Err: r.String(), Body: r.Any()} }
