// Package vacation ports the STAMP Vacation benchmark to the D-STM: a
// travel-reservation system with car/flight/room inventories and customer
// records spread over the cluster. A reservation transaction is a parent
// atomic action enclosing one closed-nested transaction per resource kind
// (find the cheapest available unit and claim it) plus a customer update —
// exactly the composition pattern the paper motivates. The benchmark's
// transactions are the longest-running of the suite.
package vacation

import (
	"context"
	"fmt"
	"math/rand"

	"dstm/internal/apps"
	"dstm/internal/object"
	"dstm/internal/sched"
	"dstm/internal/stm"
)

// Kind enumerates resource tables.
type Kind uint8

// Resource kinds.
const (
	Car Kind = iota
	Flight
	Room
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Car:
		return "car"
	case Flight:
		return "flight"
	case Room:
		return "room"
	default:
		return "unknown"
	}
}

// Resource is one inventory entry.
type Resource struct {
	Total int64
	Avail int64
	Price int64
}

// Copy implements object.Value.
func (r *Resource) Copy() object.Value { c := *r; return &c }

// Reservation records one claimed resource unit.
type Reservation struct {
	Kind  Kind
	Index int
	Price int64
}

// Customer is a customer record with its reservations.
type Customer struct {
	Reservations []Reservation
}

// Copy implements object.Value (deep-copies the reservation list).
func (c *Customer) Copy() object.Value {
	n := &Customer{Reservations: make([]Reservation, len(c.Reservations))}
	copy(n.Reservations, c.Reservations)
	return n
}

// Options configures the benchmark.
type Options struct {
	// ResourcesPerKindPerNode inventory entries of each kind per node.
	// 0 means 2 (×3 kinds + 2 customers = 8 objects/node, inside the
	// paper's 5–10 band).
	ResourcesPerKindPerNode int
	// CustomersPerNode customer records per node. 0 means 2.
	CustomersPerNode int
	// UnitsPerResource initial availability per inventory entry. 0 means 50.
	UnitsPerResource int64
	// ScanSpan is how many inventory entries a reservation scans per kind.
	// 0 means 4.
	ScanSpan int
}

// Vacation is the benchmark instance.
type Vacation struct {
	opts      Options
	resources int // per kind
	customers int
	pick      apps.KeyPicker
}

// New returns a Vacation benchmark.
func New(opts Options) *Vacation {
	if opts.ResourcesPerKindPerNode <= 0 {
		opts.ResourcesPerKindPerNode = 2
	}
	if opts.CustomersPerNode <= 0 {
		opts.CustomersPerNode = 2
	}
	if opts.UnitsPerResource <= 0 {
		opts.UnitsPerResource = 50
	}
	if opts.ScanSpan <= 0 {
		opts.ScanSpan = 4
	}
	return &Vacation{opts: opts, pick: apps.UniformKeys}
}

// SetKeyPicker implements apps.Benchmark: customer and inventory-offset
// choices go through p, so skew concentrates reservations on a few hot
// customers and resource rows.
func (v *Vacation) SetKeyPicker(p apps.KeyPicker) { v.pick = apps.PickerOrUniform(p) }

// Name implements apps.Benchmark.
func (v *Vacation) Name() string { return "Vacation" }

// ResourceID returns the object ID of inventory entry i of kind k.
func ResourceID(k Kind, i int) object.ID {
	return object.ID(fmt.Sprintf("vac/%s/%d", k, i))
}

// CustomerID returns the object ID of customer i.
func CustomerID(i int) object.ID { return object.ID(fmt.Sprintf("vac/cust/%d", i)) }

// Setup implements apps.Benchmark: inventory entry i of each kind and
// customer i live on node i mod N. apps.Seed puts the list's j-th object on
// node j mod N, which is that node because each kind's entries and the
// customers each start the list at a multiple of N. Prices are drawn kind
// by kind, entry by entry.
func (v *Vacation) Setup(ctx context.Context, rts []*stm.Runtime) error {
	v.resources = v.opts.ResourcesPerKindPerNode * len(rts)
	v.customers = v.opts.CustomersPerNode * len(rts)
	rng := rand.New(rand.NewSource(45))
	var ids []object.ID
	var vals []object.Value
	for k := Kind(0); k < numKinds; k++ {
		for i := 0; i < v.resources; i++ {
			ids = append(ids, ResourceID(k, i))
			vals = append(vals, &Resource{
				Total: v.opts.UnitsPerResource,
				Avail: v.opts.UnitsPerResource,
				Price: 50 + int64(rng.Intn(450)),
			})
		}
	}
	for i := 0; i < v.customers; i++ {
		ids = append(ids, CustomerID(i))
		vals = append(vals, &Customer{})
	}
	return apps.Seed(ctx, rts, ids, vals)
}

// Op implements apps.Benchmark. Writes split between making reservations
// (dominant, as in STAMP's default mix), cancelling a customer's
// reservations, and updating inventory prices.
func (v *Vacation) Op(ctx context.Context, rt *stm.Runtime, rng *rand.Rand, read bool) error {
	if read {
		return v.query(ctx, rt, rng)
	}
	switch r := rng.Intn(10); {
	case r < 7:
		return v.MakeReservation(ctx, rt, rng, v.pick(rng, v.customers))
	case r < 9:
		return v.CancelCustomer(ctx, rt, v.pick(rng, v.customers))
	default:
		return v.updateTables(ctx, rt, rng)
	}
}

// window is the access set of one inventory scan: ScanSpan entries of kind
// k from offset off, opened with one ReadMany.
func (v *Vacation) window(k Kind, off int) []object.ID {
	oids := make([]object.ID, v.opts.ScanSpan)
	for j := range oids {
		oids[j] = ResourceID(k, (off+j)%v.resources)
	}
	return oids
}

// MakeReservation books the cheapest available unit of one to three
// resource kinds for the customer, each kind inside its own closed-nested
// transaction (the paper's "try an alternate remote device" pattern:
// a failed kind aborts only its inner transaction).
func (v *Vacation) MakeReservation(ctx context.Context, rt *stm.Runtime, rng *rand.Rand, cust int) error {
	kinds := make([]Kind, 0, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		if rng.Intn(2) == 0 {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		kinds = append(kinds, Kind(rng.Intn(int(numKinds))))
	}
	offsets := make([]int, len(kinds))
	access := []object.ID{CustomerID(cust)} // everything the reservation may open
	for i := range offsets {
		offsets[i] = v.pick(rng, v.resources)
		access = append(access, v.window(kinds[i], offsets[i])...)
	}

	return rt.Atomic(ctx, "vac/reserve", func(tx *stm.Txn) error {
		tx.Prefetch(ctx, access, sched.Read)
		var booked []Reservation
		for i, k := range kinds {
			kind, off := k, offsets[i]
			// The inner transaction may retry: everything it assigns
			// outside itself must be overwrite-style (idempotent), never
			// accumulative — hence `chosen`, appended only after the inner
			// commit is final.
			var chosen *Reservation
			err := tx.Atomic(ctx, "vac/reserve/kind", func(c *stm.Txn) error {
				chosen = nil
				// Scan a window of the kind's inventory for the cheapest
				// available entry.
				vals, err := c.ReadMany(ctx, v.window(kind, off))
				if err != nil {
					return err
				}
				best := -1
				var bestPrice int64
				for j, val := range vals {
					res := val.(*Resource)
					if res.Avail > 0 && (best < 0 || res.Price < bestPrice) {
						best, bestPrice = (off+j)%v.resources, res.Price
					}
				}
				if best < 0 {
					return nil // nothing available: skip this kind
				}
				if err := c.Update(ctx, ResourceID(kind, best), func(val object.Value) object.Value {
					val.(*Resource).Avail--
					return val
				}); err != nil {
					return err
				}
				chosen = &Reservation{Kind: kind, Index: best, Price: bestPrice}
				return nil
			})
			if err != nil {
				return err
			}
			if chosen != nil {
				booked = append(booked, *chosen)
			}
		}
		if len(booked) == 0 {
			return nil
		}
		return tx.Update(ctx, CustomerID(cust), func(val object.Value) object.Value {
			cu := val.(*Customer)
			cu.Reservations = append(cu.Reservations, booked...)
			return val
		})
	})
}

// CancelCustomer releases all of one customer's reservations (STAMP's
// delete-customer action), each release in a nested transaction.
func (v *Vacation) CancelCustomer(ctx context.Context, rt *stm.Runtime, cust int) error {
	return rt.Atomic(ctx, "vac/cancel", func(tx *stm.Txn) error {
		val, err := tx.Read(ctx, CustomerID(cust))
		if err != nil {
			return err
		}
		resv := val.(*Customer).Reservations
		held := make([]object.ID, len(resv))
		for i, r := range resv {
			held[i] = ResourceID(r.Kind, r.Index)
		}
		tx.Prefetch(ctx, held, sched.Read)
		for _, r := range resv {
			res := r
			if err := tx.Atomic(ctx, "vac/cancel/one", func(c *stm.Txn) error {
				return c.Update(ctx, ResourceID(res.Kind, res.Index), func(val object.Value) object.Value {
					val.(*Resource).Avail++
					return val
				})
			}); err != nil {
				return err
			}
		}
		return tx.Write(ctx, CustomerID(cust), &Customer{})
	})
}

// updateTables changes prices of a few random inventory entries (STAMP's
// update-tables action).
func (v *Vacation) updateTables(ctx context.Context, rt *stm.Runtime, rng *rand.Rand) error {
	n := 1 + rng.Intn(3)
	type target struct {
		k     Kind
		idx   int
		price int64
	}
	targets := make([]target, n)
	access := make([]object.ID, n)
	for i := range targets {
		targets[i] = target{
			// The kind goes through the key picker too: under a Zipfian
			// picker, price updates concentrate on the same (kind, index)
			// hot set that queries scan, instead of spreading uniformly
			// across kinds and decorrelating the read and write workloads.
			k:     Kind(v.pick(rng, int(numKinds))),
			idx:   v.pick(rng, v.resources),
			price: 50 + int64(rng.Intn(450)),
		}
		access[i] = ResourceID(targets[i].k, targets[i].idx)
	}
	return rt.Atomic(ctx, "vac/update", func(tx *stm.Txn) error {
		tx.Prefetch(ctx, access, sched.Read)
		for _, tg := range targets {
			tgt := tg
			if err := tx.Atomic(ctx, "vac/update/one", func(c *stm.Txn) error {
				return c.Update(ctx, ResourceID(tgt.k, tgt.idx), func(val object.Value) object.Value {
					val.(*Resource).Price = tgt.price
					return val
				})
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

// query reads a customer's itinerary and a window of inventory entries.
// The kind is drawn through the key picker so skewed cells query the same
// (kind, index) hot set the writers mutate (see updateTables).
func (v *Vacation) query(ctx context.Context, rt *stm.Runtime, rng *rand.Rand) error {
	cust := v.pick(rng, v.customers)
	kind := Kind(v.pick(rng, int(numKinds)))
	off := v.pick(rng, v.resources)
	return rt.Atomic(ctx, "vac/query", func(tx *stm.Txn) error {
		tx.Prefetch(ctx, append(v.window(kind, off), CustomerID(cust)), sched.Read)
		if err := tx.Atomic(ctx, "vac/query/cust", func(c *stm.Txn) error {
			_, err := c.Read(ctx, CustomerID(cust))
			return err
		}); err != nil {
			return err
		}
		return tx.Atomic(ctx, "vac/query/inv", func(c *stm.Txn) error {
			_, err := c.ReadMany(ctx, v.window(kind, off))
			return err
		})
	})
}

// Check implements apps.Benchmark: for every inventory entry,
// Total − Avail equals the number of reservations held against it, and
// 0 ≤ Avail ≤ Total.
func (v *Vacation) Check(ctx context.Context, rt *stm.Runtime) error {
	return rt.Atomic(ctx, "vac/check", func(tx *stm.Txn) error {
		// One bulk read of every customer, then every inventory entry.
		oids := make([]object.ID, 0, v.customers+int(numKinds)*v.resources)
		for i := 0; i < v.customers; i++ {
			oids = append(oids, CustomerID(i))
		}
		for k := Kind(0); k < numKinds; k++ {
			for i := 0; i < v.resources; i++ {
				oids = append(oids, ResourceID(k, i))
			}
		}
		vals, err := tx.ReadMany(ctx, oids)
		if err != nil {
			return err
		}
		claimed := make(map[object.ID]int64)
		for _, val := range vals[:v.customers] {
			for _, r := range val.(*Customer).Reservations {
				claimed[ResourceID(r.Kind, r.Index)]++
			}
		}
		for i, val := range vals[v.customers:] {
			oid, res := oids[v.customers+i], val.(*Resource)
			if res.Avail < 0 || res.Avail > res.Total {
				return fmt.Errorf("vacation: %s has avail %d of total %d", oid, res.Avail, res.Total)
			}
			if got := res.Total - res.Avail; got != claimed[oid] {
				return fmt.Errorf("vacation: %s claims mismatch: inventory says %d, customers hold %d",
					oid, got, claimed[oid])
			}
		}
		return nil
	})
}
