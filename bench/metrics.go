package main

import (
	"math"
	"sort"
)

// metricDef names one end-to-end metric. Bound is the share of the
// baseline's median by which it may worsen before a change counts as a
// regression; Abs is an absolute allowance in the metric's unit for
// values too small for a share to mean anything. A metric with neither
// is reported but not gated. Per-layer metrics carry neither.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Abs    float64
}

// endToEnd is what a user of the system sees. BENCHMARK.json lists the
// ones with a Bound, by the same names, units and bounds. Every bound is
// 0.25, the most the contract allows: over ten seeds the quartiles of
// these metrics lie up to 14 % apart on the noisiest workload and their
// medians drift up to 10 % with the host's timer (README, "How steady").
// The two p95s are not gated because they do not repeat at HEAD: their
// quartiles lie 25 % apart on wan-write90 and 40 % on loopback TCP,
// where the same seed read 3.5 to 15.8 ms in six consecutive runs.
// failed_frac is 0 at HEAD, so it carries an absolute allowance; under
// the contract it travels as attempted/failed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.5},
	{"op_p50_ms", "ms", "lower", 0.25, 0},
	{"op_p95_ms", "ms", "lower", 0, 0},
	{"read_p50_ms", "ms", "lower", 0.25, 0},
	{"write_p50_ms", "ms", "lower", 0.25, 0},
	{"write_p95_ms", "ms", "lower", 0, 0},
	{"goodput_tps", "ops/s", "higher", 0.25, 0},
	{"failed_frac", "ratio", "lower", 0, 0.01},
	{"msgs_per_op", "msgs/op", "lower", 0.25, 0},
	{"cpu_ms_per_op", "ms/op", "lower", 0.25, 0},
}

func (d metricDef) gated() bool { return d.Bound > 0 || d.Abs > 0 }

// value is one measured metric: the number, its unit, and how many
// samples stand behind it (operations, spans, loop iterations).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metrics maps metric name to its measured value.
type metrics map[string]value

func (m metrics) set(name, unit string, v float64, n int) {
	m[name] = value{Value: v, Unit: unit, N: n}
}

// quantile returns the nearest-rank q-quantile of xs (the smallest
// sample with at least q of the samples at or below it) and 0 for an
// empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// agrees reports whether two measurements of the same code lie within
// the metric's bound of each other; an ungated metric always agrees.
func (d metricDef) agrees(a, b float64) bool {
	return !d.gated() || math.Abs(a-b) <= math.Max(d.Bound*math.Abs(a), d.Abs)
}
