package list

import (
	"dstm/internal/object"
	"dstm/internal/wire"
)

// wireIDNode is list's slot in the application-value ID range 100–119 (see
// DESIGN.md "Wire format").
const wireIDNode wire.ID = 101

func init() { wire.Register(wireIDNode, &Node{}) }

// AppendWire implements wire.Codec.
func (n *Node) AppendWire(b []byte) ([]byte, error) {
	return wire.AppendString(wire.AppendVarint(b, n.Val), string(n.Next)), nil
}

// ReadWire implements wire.Codec.
func (*Node) ReadWire(r *wire.Reader) any {
	return &Node{Val: r.Varint(), Next: object.ID(r.String())}
}
