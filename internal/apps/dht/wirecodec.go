package dht

import "dstm/internal/wire"

// wireIDBucket is dht's slot in the application-value ID range 100–119
// (see DESIGN.md "Wire format").
const wireIDBucket wire.ID = 108

func init() { wire.Register(wireIDBucket, &Bucket{}) }

// AppendWire implements wire.Codec.
func (b *Bucket) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(len(b.M)))
	for k, v := range b.M {
		buf = wire.AppendString(buf, k)
		buf = wire.AppendString(buf, v)
	}
	return buf, nil
}

// ReadWire implements wire.Codec.
func (*Bucket) ReadWire(r *wire.Reader) any {
	n := r.SliceLen(2)
	b := &Bucket{M: make(map[string]string, n)}
	for i := 0; i < n; i++ {
		k := r.String()
		b.M[k] = r.String()
	}
	return b
}
