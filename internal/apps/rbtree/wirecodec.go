package rbtree

import (
	"dstm/internal/object"
	"dstm/internal/wire"
)

// rbtree's slots in the application-value ID range 100–119, for both
// trees (see DESIGN.md "Wire format"; 106 and 107 are retired).
const (
	wireIDRoot wire.ID = 104
	wireIDNode wire.ID = 105
)

func init() {
	wire.Register(wireIDRoot, &Root{})
	wire.Register(wireIDNode, &Node{})
}

// AppendWire implements wire.Codec.
func (r *Root) AppendWire(b []byte) ([]byte, error) {
	return wire.AppendString(b, string(r.Child)), nil
}

// ReadWire implements wire.Codec.
func (*Root) ReadWire(r *wire.Reader) any { return &Root{Child: object.ID(r.String())} }

// AppendWire implements wire.Codec.
func (n *Node) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, n.Val)
	b = wire.AppendBool(b, n.Red)
	b = wire.AppendString(b, string(n.Left))
	b = wire.AppendString(b, string(n.Right))
	return wire.AppendBool(b, n.Deleted), nil
}

// ReadWire implements wire.Codec.
func (*Node) ReadWire(r *wire.Reader) any {
	return &Node{Val: r.Varint(), Red: r.Bool(), Left: object.ID(r.String()),
		Right: object.ID(r.String()), Deleted: r.Bool()}
}
