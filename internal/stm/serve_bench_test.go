package stm

import (
	"context"
	"testing"

	"dstm/internal/object"
	"dstm/internal/sched"
)

// BenchmarkServeRetrieve times one owner serving a 4-entry retrieve through
// its handler: a plain one, and a locking one whose locks are then freed in
// the store (no release message, no hand-off).
//
//	go test ./internal/stm -run X -bench ServeRetrieve
func BenchmarkServeRetrieve(b *testing.B) {
	tc := newTestCluster(b, 1, nil, nil)
	rt := tc.rts[0]
	oids := []object.ID{"serve/0", "serve/1", "serve/2", "serve/3"}
	for _, oid := range oids {
		if err := rt.CreateRoot(context.Background(), oid, &box{}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("plain", func(b *testing.B) {
		req := retrieveReq{TxID: 1, Mode: sched.Read, Oids: oids}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rt.handleRetrieve(0, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("locking", func(b *testing.B) {
		req := retrieveReq{TxID: 1, Mode: sched.Write, Oids: oids}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req.LockID = uint64(i + 1)
			body, err := rt.handleRetrieve(0, req)
			if err != nil {
				b.Fatal(err)
			}
			if !body.(retrieveResp).Locked {
				b.Fatal("locking retrieve left the entries unlocked")
			}
			for _, oid := range oids {
				rt.store.Unlock(oid, req.LockID)
			}
		}
	})
}
