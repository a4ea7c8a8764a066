package transport

import (
	"sync"
	"testing"
	"time"
)

// decisions drains n Decide calls for one directed link into a compact
// record for comparison.
func decisions(fm *FaultModel, from, to NodeID, n int) []Outcome {
	out := make([]Outcome, n)
	for i := range out {
		out[i] = fm.Decide(from, to)
	}
	return out
}

func TestFaultModelDeterministicPerSeed(t *testing.T) {
	cases := []struct {
		name string
		cfg  FaultConfig
	}{
		{"drop-only", FaultConfig{Seed: 1, Drop: 0.3}},
		{"dup-only", FaultConfig{Seed: 2, Duplicate: 0.4}},
		{"reorder-only", FaultConfig{Seed: 3, Reorder: 0.5}},
		{"mixed", FaultConfig{Seed: 4, Drop: 0.15, Duplicate: 0.1, Reorder: 0.2}},
		{"heavy", FaultConfig{Seed: 5, Drop: 0.5, Duplicate: 0.5, Reorder: 0.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := NewFaultModel(tc.cfg), NewFaultModel(tc.cfg)
			for _, link := range [][2]NodeID{{0, 1}, {1, 0}, {3, 7}} {
				da := decisions(a, link[0], link[1], 200)
				db := decisions(b, link[0], link[1], 200)
				for i := range da {
					if da[i] != db[i] {
						t.Fatalf("link %v message %d: %+v vs %+v (same seed must give same stream)",
							link, i, da[i], db[i])
					}
				}
			}
		})
	}
}

func TestFaultModelSeedChangesStream(t *testing.T) {
	a := NewFaultModel(FaultConfig{Seed: 1, Drop: 0.5})
	b := NewFaultModel(FaultConfig{Seed: 99, Drop: 0.5})
	same := 0
	const n = 200
	for i := 0; i < n; i++ {
		if a.Decide(0, 1).Drop == b.Decide(0, 1).Drop {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical drop streams")
	}
}

func TestFaultModelRates(t *testing.T) {
	cases := []struct {
		name      string
		cfg       FaultConfig
		wantDrop  float64
		wantDup   float64
		wantReord float64
	}{
		{"clean", FaultConfig{Seed: 7}, 0, 0, 0},
		{"drop20", FaultConfig{Seed: 7, Drop: 0.2}, 0.2, 0, 0},
		{"all-faults", FaultConfig{Seed: 7, Drop: 0.1, Duplicate: 0.2, Reorder: 0.3}, 0.1, 0.2, 0.3},
		{"drop-everything", FaultConfig{Seed: 7, Drop: 1}, 1, 0, 0},
	}
	const n = 5000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fm := NewFaultModel(tc.cfg)
			var drops, dups, reords int
			for i := 0; i < n; i++ {
				out := fm.Decide(0, 1)
				if out.Drop {
					drops++
				}
				if out.Dup {
					dups++
				}
				if out.Delay > 0 {
					reords++
				}
			}
			check := func(what string, got int, want float64) {
				t.Helper()
				rate := float64(got) / n
				if rate < want-0.05 || rate > want+0.05 {
					t.Fatalf("%s rate %.3f, want %.2f ± 0.05", what, rate, want)
				}
			}
			check("drop", drops, tc.wantDrop)
			check("duplicate", dups, tc.wantDup)
			check("reorder", reords, tc.wantReord)
			st := fm.Stats()
			if st.Dropped != uint64(drops) || st.Duplicated != uint64(dups) || st.Reordered != uint64(reords) {
				t.Fatalf("stats %+v disagree with observed (%d, %d, %d)", st, drops, dups, reords)
			}
		})
	}
}

func TestFaultModelSelfSendsNeverFaulted(t *testing.T) {
	fm := NewFaultModel(FaultConfig{Seed: 1, Drop: 1, Duplicate: 1, Reorder: 1})
	for i := 0; i < 50; i++ {
		if out := fm.Decide(4, 4); out != (Outcome{}) {
			t.Fatalf("self-send faulted: %+v", out)
		}
	}
}

func TestFaultModelCrashRestart(t *testing.T) {
	fm := NewFaultModel(FaultConfig{Seed: 1})
	fm.Crash(3)
	// Everything to or from the crashed node is lost, both directions.
	for _, link := range [][2]NodeID{{0, 3}, {3, 0}, {3, 9}} {
		if out := fm.Decide(link[0], link[1]); !out.Drop {
			t.Fatalf("message %v survived a crashed endpoint", link)
		}
	}
	// Other traffic is unaffected.
	if fm.Decide(0, 1).Drop {
		t.Fatal("crash of node 3 dropped 0→1 traffic")
	}
	fm.Restart(3)
	// Messages lost during the crash stay lost; new traffic flows.
	for _, link := range [][2]NodeID{{0, 3}, {3, 0}} {
		if out := fm.Decide(link[0], link[1]); out.Drop {
			t.Fatalf("restarted node still unreachable on %v", link)
		}
	}
}

func TestMemnetFaultDrop(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Endpoint(0)
	b := n.Endpoint(1)
	var mu sync.Mutex
	count := 0
	b.SetHandler(func(m *Message) { mu.Lock(); count++; mu.Unlock() })

	n.SetFaults(NewFaultModel(FaultConfig{Seed: 1, Drop: 1}))
	for i := 0; i < 10; i++ {
		if err := a.Send(&Message{From: 0, To: 1}); err != nil {
			t.Fatal(err)
		}
	}
	n.SetFaults(nil)
	if err := a.Send(&Message{From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("post-heal message never delivered")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("delivered %d messages, want 1 (10 dropped)", count)
	}
}

func TestMemnetFaultDuplicate(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Endpoint(0)
	b := n.Endpoint(1)
	var mu sync.Mutex
	count := 0
	b.SetHandler(func(m *Message) { mu.Lock(); count++; mu.Unlock() })

	n.SetFaults(NewFaultModel(FaultConfig{Seed: 1, Duplicate: 1, MaxExtraDelay: time.Millisecond}))
	const sent = 5
	for i := 0; i < sent; i++ {
		if err := a.Send(&Message{From: 0, To: 1, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		c := count
		mu.Unlock()
		if c == 2*sent {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d copies, want %d (every message duplicated)", c, 2*sent)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMemnetFaultReorder(t *testing.T) {
	// With reorder probability 1 every message takes an independent extra
	// delay, so strict FIFO arrival of a long burst is (astronomically)
	// unlikely — and delivery still happens.
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Endpoint(0)
	b := n.Endpoint(1)
	const count = 64
	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	b.SetHandler(func(m *Message) {
		mu.Lock()
		order = append(order, m.Payload.(int))
		if len(order) == count {
			close(done)
		}
		mu.Unlock()
	})
	n.SetFaults(NewFaultModel(FaultConfig{Seed: 3, Reorder: 1, MaxExtraDelay: 5 * time.Millisecond}))
	for i := 0; i < count; i++ {
		if err := a.Send(&Message{From: 0, To: 1, Payload: i}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("reordered messages not all delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	inOrder := true
	for i, v := range order {
		if v != i {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("all 64 messages arrived in FIFO order despite reorder=1")
	}
}

func TestMemnetFaultCrashRestartDelivery(t *testing.T) {
	n := NewNetwork(nil)
	defer n.Close()
	a := n.Endpoint(0)
	b := n.Endpoint(1)
	var mu sync.Mutex
	var got []int
	b.SetHandler(func(m *Message) { mu.Lock(); got = append(got, m.Payload.(int)); mu.Unlock() })

	fm := NewFaultModel(FaultConfig{Seed: 1})
	n.SetFaults(fm)

	send := func(v int) {
		t.Helper()
		if err := a.Send(&Message{From: 0, To: 1, Payload: v}); err != nil {
			t.Fatal(err)
		}
	}
	wait := func(want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			mu.Lock()
			c := len(got)
			mu.Unlock()
			if c >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("have %d deliveries, want %d", c, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	send(1)
	wait(1)
	fm.Crash(1)
	send(2) // lost: the destination is down
	fm.Restart(1)
	send(3)
	wait(2)
	time.Sleep(10 * time.Millisecond) // give a late message 2 a chance to (wrongly) appear
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("deliveries %v, want [1 3]: messages sent while down must stay lost", got)
	}
}
