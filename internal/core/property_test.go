package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dstm/internal/sched"
)

// Property: under any interleaving of conflicts, releases (an owner serves a
// decline with a release too) and extractions (the queue leaving with its
// object), (a) the queue stays shorter than the CL threshold, (b) every
// enqueue decision carries a positive backoff, (c) backoffs reported to
// consecutive enqueuers of one object never decrease between releases and
// extractions (bk only accumulates), and (d) an extraction leaves the queue
// empty.
func TestRTSQueueInvariantsProperty(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		r := New(Options{CLThreshold: 5})
		rng := rand.New(rand.NewSource(seed))
		lastBackoff := time.Duration(0)
		for i, op := range opsRaw {
			switch op % 4 {
			case 0, 1: // conflict
				req := mkReq("p", uint64(i+1), int32(rng.Intn(5)), sched.Write,
					time.Duration(1+rng.Intn(1000))*time.Millisecond,
					time.Duration(1+rng.Intn(10))*time.Millisecond,
					rng.Intn(3))
				d := r.OnConflict(req)
				if r.QueueLen("obj/p") >= 5 {
					return false
				}
				if d.Enqueue {
					if d.Backoff <= 0 {
						return false
					}
					if d.Backoff < lastBackoff {
						return false
					}
					lastBackoff = d.Backoff
				}
			case 2: // release
				r.OnRelease("obj/p")
				lastBackoff = 0
			case 3: // extraction
				r.ExtractQueue("obj/p")
				if r.QueueLen("obj/p") != 0 {
					return false
				}
				lastBackoff = 0
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ExtractQueue + AdoptQueue on a fresh RTS preserves order and
// length exactly.
func TestRTSQueueMigrationProperty(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%8) + 1
		r := New(Options{CLThreshold: 1 << 20})
		for i := 0; i < count; i++ {
			d := r.OnConflict(mkReq("m", uint64(i+1), int32(i), sched.Write,
				time.Hour, time.Millisecond, 0))
			if !d.Enqueue {
				return false
			}
		}
		q := r.ExtractQueue("obj/m")
		if len(q) != count {
			return false
		}
		r2 := New(Options{CLThreshold: 1 << 20})
		r2.AdoptQueue("obj/m", q)
		if r2.QueueLen("obj/m") != count {
			return false
		}
		for i := 0; i < count; i++ {
			out := r2.OnRelease("obj/m")
			if len(out) != 1 || out[0].TxID != uint64(i+1) {
				return false
			}
		}
		return r2.QueueLen("obj/m") == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a pop with reads at the head returns every queued read and no
// writes; the remaining queue holds only the writes, in order.
func TestRTSReadBroadcastProperty(t *testing.T) {
	f := func(pattern []bool) bool {
		if len(pattern) == 0 || len(pattern) > 32 {
			return true
		}
		r := New(Options{CLThreshold: 1 << 20})
		reads, writes := 0, 0
		for i, isRead := range pattern {
			mode := sched.Write
			if isRead {
				mode = sched.Read
				reads++
			} else {
				writes++
			}
			if d := r.OnConflict(mkReq("b", uint64(i+1), int32(i), mode,
				time.Hour, time.Millisecond, 0)); !d.Enqueue {
				return false
			}
		}
		out := r.OnRelease("obj/b")
		if pattern[0] {
			// Read at head: all reads pop at once.
			if len(out) != reads {
				return false
			}
			for _, q := range out {
				if q.Mode != sched.Read {
					return false
				}
			}
			return r.QueueLen("obj/b") == writes
		}
		// Write at head: exactly one write pops.
		return len(out) == 1 && out[0].Mode == sched.Write &&
			r.QueueLen("obj/b") == len(pattern)-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
