package stm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dstm/internal/cluster"
	"dstm/internal/transport"
	"dstm/internal/wire"
)

// TestRetiredKindsAreRefused: a request with a retired message kind (the
// per-object check/acquire/commit RPCs, the remote release, the acquire
// batch and the MVCC snapshot reads of stm, the single-object lookup and register and the
// single-object and batch updates of cc — what a peer built before their
// removal would still send) is answered with the endpoint's "no handler"
// error at once, not left to time out.
func TestRetiredKindsAreRefused(t *testing.T) {
	tc := newTestCluster(t, 2, nil, nil)
	for _, kind := range []transport.Kind{1, 2, 3, 6, 11, 12, 13, 14, 17, 20, 21} {
		t.Run(fmt.Sprintf("kind%d", kind), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, err := tc.rts[1].ep.Call(ctx, 0, kind, retrieveReq{})
			var remote *cluster.RemoteError
			if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "no handler for") {
				t.Fatalf("call with retired kind %d: %v, want the remote no-handler error", kind, err)
			}
		})
	}
}

// TestRetiredWireIDsAreUnregistered: the wire type IDs of the retired
// payloads (10 and 11 were the single-object retrieve pair, 16 the remote
// release, 33 and 34 the publish pair that surrendered objects, 38 the
// retrieve reply without the surrendered queues, 22 and 24 the
// acquire and check replies without the not-here answer, 23 and 35 the check
// request and the acquire reply from before acquire and validation shared one
// request and one reply type, 21 and 36 that shared pair, from before a
// validation was a prefetch retrieve, 25 and 26 the publish pair before it named what
// moved, 27–30 the MVCC snapshot reads,
// 31 and 32 the retrieve pair without the lock identity and the locked flag,
// 40–42 the single-object directory lookup and register, 43 and 47 the
// directory updates, 46 the register batch that named its creating
// transaction) decode as unknown, so a frame from an old peer is
// rejected instead of being read as whatever type took the number over.
func TestRetiredWireIDsAreUnregistered(t *testing.T) {
	for _, id := range []wire.ID{10, 11, 12, 13, 14, 15, 16, 17, 18, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 38, 40, 41, 42, 43, 46, 47} {
		t.Run(fmt.Sprintf("id%d", id), func(t *testing.T) {
			r := wire.NewReader(wire.AppendUvarint(nil, uint64(id)))
			v := r.Any()
			err := r.Err()
			if v != nil || !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), "unknown wire type ID") {
				t.Fatalf("wire ID %d decoded to %T, err %v; want unknown wire type ID", id, v, err)
			}
		})
	}
}
