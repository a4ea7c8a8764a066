package vacation

import "dstm/internal/wire"

// vacation's slots in the application-value ID range 100–119 (see DESIGN.md
// "Wire format").
const (
	wireIDResource wire.ID = 102
	wireIDCustomer wire.ID = 103
)

func init() {
	wire.Register(wireIDResource, &Resource{})
	wire.Register(wireIDCustomer, &Customer{})
}

// AppendWire implements wire.Codec.
func (r *Resource) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendVarint(b, r.Total)
	b = wire.AppendVarint(b, r.Avail)
	return wire.AppendVarint(b, r.Price), nil
}

// ReadWire implements wire.Codec.
func (*Resource) ReadWire(r *wire.Reader) any {
	return &Resource{Total: r.Varint(), Avail: r.Varint(), Price: r.Varint()}
}

// AppendWire implements wire.Codec.
func (c *Customer) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(c.Reservations)))
	for _, res := range c.Reservations {
		b = wire.AppendUvarint(b, uint64(res.Kind))
		b = wire.AppendVarint(b, int64(res.Index))
		b = wire.AppendVarint(b, res.Price)
	}
	return b, nil
}

// ReadWire implements wire.Codec.
func (*Customer) ReadWire(r *wire.Reader) any {
	c := &Customer{Reservations: wire.MakeSlice[Reservation](r.SliceLen(3))}
	for i := range c.Reservations {
		c.Reservations[i] = Reservation{Kind: Kind(r.Uvarint()), Index: int(r.Varint()), Price: r.Varint()}
	}
	return c
}
