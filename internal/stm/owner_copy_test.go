package stm

import (
	"context"
	"testing"

	"dstm/internal/core"
	"dstm/internal/object"
	"dstm/internal/sched"
)

// These tests pin who copies a value: the store hands out the value it holds
// (object.Store.Read), and the owner-side step that sends it on — a retrieve
// reply, a locking retrieve's, a hand-off push — makes the receiver's copy.

// TestValueLeavingTheOwnerIsCopied: a receiver that changes the value it got
// from a self-call retrieve, from a locking retrieve or from a push leaves
// the owner's record unchanged. A node calling itself runs the handler in
// process, so nothing but the sender's copy stands between the two.
func TestValueLeavingTheOwnerIsCopied(t *testing.T) {
	ctx := context.Background()
	const lockID = 0x10c
	for _, c := range []struct {
		name    string
		receive func(t *testing.T, rt *Runtime) object.Value
	}{
		{"retrieve", func(t *testing.T, rt *Runtime) object.Value {
			return selfRetrieve(t, rt, retrieveReq{TxID: 1, Mode: sched.Read, Oids: []object.ID{"x"}})
		}},
		{"locking retrieve", func(t *testing.T, rt *Runtime) object.Value {
			// A second announcement of a lock the attempt holds: the read
			// leaves the locked entry alone, and lockAnnounced answers it.
			lockAt(rt.Store(), "x", lockID, rt.Store().State("x").Ver)
			defer rt.Store().Unlock("x", lockID)
			return selfRetrieve(t, rt, retrieveReq{TxID: 1, Mode: sched.Write, Prefetch: true, LockID: lockID, Oids: []object.ID{"x"}})
		}},
		{"push", func(t *testing.T, rt *Runtime) object.Value {
			rt.registerWaiter(1, "x")
			defer rt.deregisterWaiter(1, "x")
			rt.Policy().AdoptQueue("x", []sched.Request{{Oid: "x", TxID: 1, Node: rt.Self(), Mode: sched.Write}})
			rt.handOff("x")
			select {
			case msg := <-rt.waiter(1, "x"):
				return msg.Value
			default:
				t.Fatal("no push for the queued requester")
				return nil
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt := newRTSCluster(t, 1, core.Options{CLThreshold: 5}).rts[0]
			if err := rt.CreateRoot(ctx, "x", &box{N: 7}); err != nil {
				t.Fatal(err)
			}
			c.receive(t, rt).(*box).N = 99
			if cs, _ := rt.Store().Read(nil, []object.ID{"x"}, nil, nil); cs[0].Val.(*box).N != 7 {
				t.Fatalf("the owner's record reads %d after the receiver changed its value, want 7", cs[0].Val.(*box).N)
			}
		})
	}
}

// selfRetrieve sends rt's retrieve of one object to rt itself and returns
// the value it answered with.
func selfRetrieve(t *testing.T, rt *Runtime, req retrieveReq) object.Value {
	t.Helper()
	body, err := rt.ep.Call(context.Background(), rt.Self(), KindRetrieve, req)
	if err != nil {
		t.Fatal(err)
	}
	r := body.(retrieveResp)
	if r.Results[0].Status != statusOK || req.LockID != 0 && !r.Locked {
		t.Fatalf("answer %v, locked %v; want a copy, locked iff asked", r.Results[0].Status, r.Locked)
	}
	return r.Results[0].Value
}

// TestHandOffOfAnUnqueuedObjectAllocatesNothing: freeing an object nobody is
// queued for — each local commit's update, each release, each installed
// migration, each lease expiry — copies no value.
func TestHandOffOfAnUnqueuedObjectAllocatesNothing(t *testing.T) {
	rt := newRTSCluster(t, 1, core.Options{CLThreshold: 5}).rts[0]
	if err := rt.CreateRoot(context.Background(), "x", &box{N: 7}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { rt.handOff("x") }); n != 0 {
		t.Fatalf("handOff of an unqueued object allocates %v times, want 0", n)
	}
}
