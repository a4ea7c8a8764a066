// Binary wire codecs for the directory protocol payloads (see DESIGN.md
// "Wire format" for the type-ID map). Same conventions as the STM codecs:
// append-style alloc-free encode, ReadWire decoding a fresh payload.
package cc

import (
	"dstm/internal/object"
	"dstm/internal/transport"
	"dstm/internal/wire"
)

// Wire type IDs 40–49 are reserved for directory payloads. IDs 40–42
// (payloads of the retired single-object lookup and register), 43 and 47
// (payloads of the retired single-object and batch updates) and 46 (the
// register batch while it named its creating transaction) are reserved:
// never reuse them.
const (
	wireIDLookupBatchReq   wire.ID = 44
	wireIDLookupBatchResp  wire.ID = 45
	wireIDRegisterBatchReq wire.ID = 49
	wireIDBatchErrResp     wire.ID = 48
)

// Wire type IDs 50–59 are reserved for the owner hints a message carries
// beside its payload (the cluster endpoint's piggyback).
const wireIDOwnerHints wire.ID = 50

func init() {
	wire.Register(wireIDOwnerHints, ownerHints{})
	wire.Register(wireIDLookupBatchReq, lookupBatchReq{})
	wire.Register(wireIDLookupBatchResp, lookupBatchResp{})
	wire.Register(wireIDRegisterBatchReq, registerBatchReq{})
	wire.Register(wireIDBatchErrResp, batchErrResp{})
}

func (q lookupBatchReq) AppendWire(b []byte) ([]byte, error) {
	return wire.AppendStrings(b, q.Oids), nil
}

func (lookupBatchReq) ReadWire(r *wire.Reader) any {
	return lookupBatchReq{Oids: wire.ReadStrings[object.ID](r)}
}

func (q lookupBatchResp) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(q.Results)))
	for _, res := range q.Results {
		b = wire.AppendVarint(b, int64(res.Owner))
		b = wire.AppendBool(b, res.Known)
	}
	return b, nil
}

func (lookupBatchResp) ReadWire(r *wire.Reader) any {
	q := lookupBatchResp{Results: wire.MakeSlice[lookupResp](r.SliceLen(2))}
	for i := range q.Results {
		q.Results[i] = lookupResp{Owner: transport.NodeID(r.Varint()), Known: r.Bool()}
	}
	return q
}

func (q registerBatchReq) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendStrings(b, q.Oids)
	return wire.AppendVarint(b, int64(q.Owner)), nil
}

func (registerBatchReq) ReadWire(r *wire.Reader) any {
	return registerBatchReq{Oids: wire.ReadStrings[object.ID](r), Owner: transport.NodeID(r.Varint())}
}

func (q batchErrResp) AppendWire(b []byte) ([]byte, error) {
	return wire.AppendStrings(b, q.Errs), nil
}

func (batchErrResp) ReadWire(r *wire.Reader) any {
	return batchErrResp{Errs: wire.ReadStrings[string](r)}
}

func (q ownerHints) AppendWire(b []byte) ([]byte, error) {
	return wire.AppendStrings(b, q.Oids), nil
}

func (ownerHints) ReadWire(r *wire.Reader) any {
	return ownerHints{Oids: wire.ReadStrings[object.ID](r)}
}
