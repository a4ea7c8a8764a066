// Package testutil provides in-memory cluster construction shared by the
// application and chaos test suites.
package testutil

import (
	"testing"

	"dstm/internal/stm"
	"dstm/internal/testbed"
)

// Cluster builds n D-STM runtimes, plain TFA on every node, over a
// zero-latency in-memory network that t.Cleanup tears down.
func Cluster(t testing.TB, n int) []*stm.Runtime {
	t.Helper()
	c, err := testbed.New(testbed.Options{Nodes: n, Scheduler: testbed.TFA})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c.Rts
}
