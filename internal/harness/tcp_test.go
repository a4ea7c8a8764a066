package harness

import (
	"context"
	"testing"
	"time"

	"dstm/internal/testbed"
)

// TestRunOverTCP runs a small bank cell over real loopback sockets: the
// harness must produce commits and a clean conservation check, since the TCP
// transport is a drop-in replacement for memnet.
func TestRunOverTCP(t *testing.T) {
	t.Run("tcp", func(t *testing.T) {
		res, err := Run(context.Background(), Config{
			Options: testbed.Options{
				Nodes:          3,
				Scheduler:      testbed.TFA,
				WorkersPerNode: 2,
				Duration:       150 * time.Millisecond,
				Transport:      "tcp",
			},
			Benchmark: BenchBank,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.Commits == 0 {
			t.Fatal("no commits over TCP")
		}
	})
}

// TestTCPRejectsFaults: fault injection is a memnet feature; a TCP config
// asking for it must fail fast instead of silently running lossless.
func TestTCPRejectsFaults(t *testing.T) {
	_, err := Run(context.Background(), Config{Options: testbed.Options{Transport: "tcp", Drop: 0.1}})
	if err == nil {
		t.Fatal("faulty TCP config accepted")
	}
}

// TestUnknownTransport: typos must not fall back to memnet silently.
func TestUnknownTransport(t *testing.T) {
	_, err := Run(context.Background(), Config{Options: testbed.Options{Transport: "udp"}})
	if err == nil {
		t.Fatal("unknown transport accepted")
	}
}
