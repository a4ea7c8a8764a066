package bank

import "dstm/internal/wire"

// Wire type IDs 100–119 are reserved for application object values; bank
// takes 100 (see DESIGN.md "Wire format").
const wireIDAccount wire.ID = 100

func init() { wire.Register(wireIDAccount, &Account{}) }

// AppendWire implements wire.Codec.
func (a *Account) AppendWire(b []byte) ([]byte, error) {
	return wire.AppendVarint(b, a.Balance), nil
}

// ReadWire implements wire.Codec.
func (*Account) ReadWire(r *wire.Reader) any { return &Account{Balance: r.Varint()} }
