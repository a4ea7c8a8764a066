package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dstm/internal/transport"
)

// piggyLog installs a numbering producer and a recording consumer on an
// endpoint: the k-th message it sends carries "<name>#k", and every
// piggyback it is handed is kept in arrival order.
type piggyLog struct {
	name string

	mu       sync.Mutex
	produced int
	heard    []string
}

func newPiggyLog(e *Endpoint, name string) *piggyLog {
	l := &piggyLog{name: name}
	e.SetPiggyback(func(to transport.NodeID) any {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.produced++
		return fmt.Sprintf("%s#%d", l.name, l.produced)
	}, func(from transport.NodeID, p any) {
		l.mu.Lock()
		l.heard = append(l.heard, fmt.Sprintf("%v from %d", p, from))
		l.mu.Unlock()
	})
	return l
}

// last is the latest piggyback handed to the consumer ("" if none) and the
// number produced.
func (l *piggyLog) last() (heard string, produced int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.heard) > 0 {
		heard = l.heard[len(l.heard)-1]
	}
	return heard, l.produced
}

// TestPiggybackRidesOnEveryCrossNodeMessage: a call whose first send is lost
// carries a fresh piggyback on that send and on its retransmission, its reply
// carries one, and so does a notify; each is handed to the receiver's
// consumer before the handler runs (or, for the reply, before the call
// returns). A call and a notify to the node itself carry nothing.
func TestPiggybackRidesOnEveryCrossNodeMessage(t *testing.T) {
	a, b, n := newPair(t, nil)
	a.SetRetryPolicy(fastRetry())
	la, lb := newPiggyLog(a, "a"), newPiggyLog(b, "b")

	var mu sync.Mutex
	var wire []string // every message's piggyback as sent, lost ones too
	dropped := false
	n.SetInterceptor(func(m *transport.Message) bool {
		mu.Lock()
		defer mu.Unlock()
		wire = append(wire, fmt.Sprintf("%d->%d reply=%v %v", m.From, m.To, m.IsReply, m.Piggyback))
		if !m.IsReply && m.Kind == kindEcho && !dropped {
			dropped = true
			return false
		}
		return true
	})
	var seenByHandler, seenByNotify string
	b.Handle(kindEcho, func(transport.NodeID, any) (any, error) {
		seenByHandler, _ = lb.last()
		return "pong", nil
	})
	notified := make(chan struct{})
	b.HandleNotify(kindPing, func(transport.NodeID, any) {
		seenByNotify, _ = lb.last()
		close(notified)
	})

	if _, err := a.Call(context.Background(), 1, kindEcho, "ping"); err != nil {
		t.Fatal(err)
	}
	if seenByHandler != "a#2 from 0" {
		t.Fatalf("the handler ran after the consumer heard %q, want the retransmission's a#2", seenByHandler)
	}
	if heard, _ := la.last(); heard != "b#1 from 1" {
		t.Fatalf("when the call returned the caller had heard %q, want the reply's b#1", heard)
	}
	if err := a.Notify(1, kindPing, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-notified:
	case <-time.After(2 * time.Second):
		t.Fatal("notify not delivered")
	}
	if seenByNotify != "a#3 from 0" {
		t.Fatalf("the notify handler ran after the consumer heard %q, want a#3", seenByNotify)
	}

	a.Handle(kindEcho, func(transport.NodeID, any) (any, error) { return "self", nil })
	a.HandleNotify(kindPing, func(transport.NodeID, any) {})
	if _, err := a.Call(context.Background(), 0, kindEcho, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Notify(0, kindPing, nil); err != nil {
		t.Fatal(err)
	}
	if _, produced := la.last(); produced != 3 {
		t.Fatalf("node 0 produced %d piggybacks, want 3: the self-call and self-notify carry none", produced)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{
		"0->1 reply=false a#1", // lost
		"0->1 reply=false a#2", // the retransmission
		"1->0 reply=true b#1",
		"0->1 reply=false a#3", // the notify
	}
	if fmt.Sprint(wire) != fmt.Sprint(want) {
		t.Fatalf("sent %q, want %q", wire, want)
	}
}

// TestPiggybackInstalledOnce: the producer and consumer are one per
// endpoint, so a second install is a bug.
func TestPiggybackInstalledOnce(t *testing.T) {
	a, _, _ := newPair(t, nil)
	nop := func(transport.NodeID) any { return nil }
	a.SetPiggyback(nop, func(transport.NodeID, any) {})
	defer func() {
		if recover() == nil {
			t.Fatal("a second SetPiggyback did not panic")
		}
	}()
	a.SetPiggyback(nop, func(transport.NodeID, any) {})
}
