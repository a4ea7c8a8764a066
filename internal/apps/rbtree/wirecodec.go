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
	wire.Register(wireIDRoot, &Root{},
		func(b []byte, v any) ([]byte, error) {
			return wire.AppendString(b, string(v.(*Root).Child)), nil
		},
		func(r *wire.Reader, prev any) any {
			q, _ := prev.(*Root)
			if q == nil {
				q = new(Root)
			}
			q.Child = object.ID(r.String())
			return q
		})
	wire.Register(wireIDNode, &Node{},
		func(b []byte, v any) ([]byte, error) {
			n := v.(*Node)
			b = wire.AppendVarint(b, n.Val)
			b = wire.AppendBool(b, n.Red)
			b = wire.AppendString(b, string(n.Left))
			b = wire.AppendString(b, string(n.Right))
			return wire.AppendBool(b, n.Deleted), nil
		},
		func(r *wire.Reader, prev any) any {
			n, _ := prev.(*Node)
			if n == nil {
				n = new(Node)
			}
			n.Val = r.Varint()
			n.Red = r.Bool()
			n.Left = object.ID(r.String())
			n.Right = object.ID(r.String())
			n.Deleted = r.Bool()
			return n
		})
}
