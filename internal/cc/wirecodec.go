// Binary wire codecs for the directory protocol payloads (see DESIGN.md
// "Wire format" for the type-ID map). Same conventions as the STM codecs:
// append-style alloc-free encode, decode-in-place with slice reuse.
package cc

import (
	"dstm/internal/object"
	"dstm/internal/transport"
	"dstm/internal/wire"
)

// Wire type IDs 40–49 are reserved for directory payloads. IDs 43 and 47
// (payloads of the retired single-object and batch updates) are reserved:
// never reuse them.
const (
	wireIDLookupReq        wire.ID = 40
	wireIDLookupResp       wire.ID = 41
	wireIDRegisterReq      wire.ID = 42
	wireIDLookupBatchReq   wire.ID = 44
	wireIDLookupBatchResp  wire.ID = 45
	wireIDRegisterBatchReq wire.ID = 46
	wireIDBatchErrResp     wire.ID = 48
)

func init() {
	wire.Register(wireIDLookupReq, lookupReq{},
		func(b []byte, v any) ([]byte, error) {
			return wire.AppendString(b, string(v.(lookupReq).Oid)), nil
		},
		func(r *wire.Reader, _ any) any {
			return lookupReq{Oid: object.ID(r.String())}
		})
	wire.Register(wireIDLookupResp, lookupResp{},
		func(b []byte, v any) ([]byte, error) {
			q := v.(lookupResp)
			b = wire.AppendVarint(b, int64(q.Owner))
			return wire.AppendBool(b, q.Known), nil
		},
		func(r *wire.Reader, _ any) any {
			return lookupResp{Owner: transport.NodeID(r.Varint()), Known: r.Bool()}
		})
	wire.Register(wireIDRegisterReq, registerReq{},
		func(b []byte, v any) ([]byte, error) {
			q := v.(registerReq)
			b = wire.AppendString(b, string(q.Oid))
			b = wire.AppendVarint(b, int64(q.Owner))
			return wire.AppendUvarint(b, q.Tx), nil
		},
		func(r *wire.Reader, _ any) any {
			return registerReq{
				Oid:   object.ID(r.String()),
				Owner: transport.NodeID(r.Varint()),
				Tx:    r.Uvarint(),
			}
		})
	wire.Register(wireIDLookupBatchReq, lookupBatchReq{},
		func(b []byte, v any) ([]byte, error) {
			return wire.AppendStrings(b, v.(lookupBatchReq).Oids), nil
		},
		func(r *wire.Reader, prev any) any {
			var q lookupBatchReq
			if p, ok := prev.(lookupBatchReq); ok {
				q = p
			}
			q.Oids = wire.ReadStrings(r, q.Oids)
			return q
		})
	wire.Register(wireIDLookupBatchResp, lookupBatchResp{},
		func(b []byte, v any) ([]byte, error) {
			q := v.(lookupBatchResp)
			b = wire.AppendUvarint(b, uint64(len(q.Results)))
			for i := range q.Results {
				b = wire.AppendVarint(b, int64(q.Results[i].Owner))
				b = wire.AppendBool(b, q.Results[i].Known)
			}
			return b, nil
		},
		func(r *wire.Reader, prev any) any {
			var q lookupBatchResp
			if p, ok := prev.(lookupBatchResp); ok {
				q = p
			}
			n := r.SliceLen(2)
			q.Results = wire.Grow(q.Results, n)
			for i := range q.Results {
				q.Results[i].Owner = transport.NodeID(r.Varint())
				q.Results[i].Known = r.Bool()
			}
			return q
		})
	wire.Register(wireIDRegisterBatchReq, registerBatchReq{},
		func(b []byte, v any) ([]byte, error) {
			q := v.(registerBatchReq)
			b = wire.AppendStrings(b, q.Oids)
			b = wire.AppendVarint(b, int64(q.Owner))
			return wire.AppendUvarint(b, q.Tx), nil
		},
		func(r *wire.Reader, prev any) any {
			var q registerBatchReq
			if p, ok := prev.(registerBatchReq); ok {
				q = p
			}
			q.Oids = wire.ReadStrings(r, q.Oids)
			q.Owner = transport.NodeID(r.Varint())
			q.Tx = r.Uvarint()
			return q
		})
	wire.Register(wireIDBatchErrResp, batchErrResp{},
		func(b []byte, v any) ([]byte, error) {
			q := v.(batchErrResp)
			b = wire.AppendUvarint(b, uint64(len(q.Errs)))
			for _, e := range q.Errs {
				b = wire.AppendString(b, e)
			}
			return b, nil
		},
		func(r *wire.Reader, prev any) any {
			var q batchErrResp
			if p, ok := prev.(batchErrResp); ok {
				q = p
			}
			n := r.SliceLen(1)
			q.Errs = wire.Grow(q.Errs, n)
			for i := range q.Errs {
				q.Errs[i] = r.String()
			}
			return q
		})
}
