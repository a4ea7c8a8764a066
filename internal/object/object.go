// Package object defines the shared-object model of the dataflow D-STM:
// identifiers, versions, copyable values, and the owner-side Store that
// holds the single authoritative (writable) copy of each object together
// with its commit-lock state.
package object

import (
	"fmt"
	"hash/fnv"
)

// ID names a shared object cluster-wide, e.g. "bank/acct/42".
type ID string

// Hash returns a stable hash of the ID, used to place the object's home
// (directory) node.
func (id ID) Hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// Version identifies a committed state of an object: the TFA clock value of
// the committing node at its commit point, plus the node ID as tie-breaker.
// The zero Version denotes the initial (creation) state.
type Version struct {
	Clock uint64
	Node  int32
}

// Equal reports whether two versions are identical.
func (v Version) Equal(o Version) bool { return v == o }

func (v Version) String() string { return fmt.Sprintf("v%d@n%d", v.Clock, v.Node) }

// Value is the interface shared objects implement. Copy must return a deep
// copy so that transaction-local buffers never alias the authoritative
// copy. A value that crosses the TCP transport also needs a binary codec:
// its type implements wire.Codec and is registered once with wire.Register.
type Value interface {
	Copy() Value
}
