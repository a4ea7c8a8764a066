package main

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dstm/internal/stm"
	"dstm/internal/testbed"
)

// quickGrid is a small, fast grid for tests printing to its buffer: four
// objects per node on 2–100 µs links, two workers per node, 80 ms.
func quickGrid(apps ...string) (grid, *bytes.Buffer) {
	var out bytes.Buffer
	g := grid{base: testbed.PaperCell(0.002, 1), objects: 4, apps: apps, w: &out}
	g.base.WorkersPerNode, g.base.Duration = 2, 80*time.Millisecond
	return g, &out
}

// number matches a printed figure: a node count, a percentage, a throughput
// or a speedup.
var number = regexp.MustCompile(`\s*\d+(\.\d+)?`)

// shape is a line with every figure in it replaced by one "#".
func shape(line string) string { return number.ReplaceAllString(line, " #") }

// results reads one of the committed results/*.txt files as lines.
func results(t *testing.T, name string) []string {
	t.Helper()
	data, err := os.ReadFile("../../results/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(data), "\n")
}

// requireLayout fails unless got has want's lines in order, each of the
// same width and, figures aside, the same text.
func requireLayout(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if shape(got[i]) != shape(want[i]) || len(got[i]) != len(want[i]) {
			t.Fatalf("line %d is\n%q\nwant the layout of\n%q", i+1, got[i], want[i])
		}
	}
}

// figures returns the numbers printed on a row after its label.
func figures(t *testing.T, row string, labelWidth int) []float64 {
	t.Helper()
	var out []float64
	for _, f := range number.FindAllString(row[labelWidth:], -1) {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// rowOf returns the line of lines that starts with prefix.
func rowOf(t *testing.T, lines []string, prefix string) string {
	t.Helper()
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no line starts with %q", prefix)
	return ""
}

// TestGridKeepsTheResultsLayout runs Table I, Figs 4 and 5 and Fig. 6 on a
// tiny grid (Bank and DHT; 2 nodes, or a sweep over 2 and 4; 50 ms) and
// checks each against the layout of its results/*.txt file: the same
// headers, one row per benchmark or node count, the same columns. Every
// nested abort rate is a percentage, every throughput and speedup positive.
func TestGridKeepsTheResultsLayout(t *testing.T) {
	ctx := context.Background()
	tiny := func() (grid, *bytes.Buffer) {
		g, out := quickGrid("bank", "dht")
		g.base.Duration = 50 * time.Millisecond
		return g, out
	}
	t.Run("table1", func(t *testing.T) {
		g, out := tiny()
		if err := g.table1(ctx, 2); err != nil {
			t.Fatal(err)
		}
		file := results(t, "table1.txt")
		got := strings.Split(out.String(), "\n")
		requireLayout(t, got, append(file[:4:4], rowOf(t, file, "Bank"), rowOf(t, file, "DHT"), "", ""))
		for _, row := range got[4:6] {
			for _, v := range figures(t, row, 12) {
				if v < 0 || v > 100 {
					t.Errorf("rate %v%% out of [0, 100]: %q", v, row)
				}
			}
		}
	})
	for _, m := range []mix{low, high} {
		name := "fig" + strconv.Itoa(m.figure)
		t.Run(name, func(t *testing.T) {
			g, out := tiny()
			if err := g.figure(ctx, m, []int{2, 4}); err != nil {
				t.Fatal(err)
			}
			file := results(t, name+".txt")
			var want []string
			for _, app := range g.apps {
				head := rowOf(t, file, "Figure "+strconv.Itoa(m.figure)+": "+label(app)+" ")
				row := rowOf(t, file, "3 ")
				want = append(want, head, file[1], row, row, "")
			}
			got := strings.Split(out.String(), "\n")
			requireLayout(t, got, append(want, ""))
			for i, row := range got {
				if i%5 < 2 || i%5 == 4 || row == "" {
					continue
				}
				for _, v := range figures(t, row, 6) {
					if v <= 0 {
						t.Errorf("throughput %v not positive: %q", v, row)
					}
				}
			}
		})
	}
	t.Run("speedup", func(t *testing.T) {
		g, out := tiny()
		if err := g.speedup(ctx, 2); err != nil {
			t.Fatal(err)
		}
		file := results(t, "speedup.txt")
		got := strings.Split(out.String(), "\n")
		requireLayout(t, got, append(file[:3:3], rowOf(t, file, "Bank"), rowOf(t, file, "DHT"), "", ""))
		for _, row := range got[3:5] {
			for _, v := range figures(t, row, 12) {
				if v <= 0 {
					t.Errorf("speedup %v not positive: %q", v, row)
				}
			}
		}
	})
}

// TestRunRejects: a typo in -bench or -experiment is an error, not a
// silently empty or default run.
func TestRunRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "table1", "-bench", "bank,nope"},
		{"-experiment", "nope", "-bench", "bank"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%q: accepted", args)
		}
		if out.Len() != 0 {
			t.Errorf("%q: printed %q before failing", args, out.String())
		}
	}
}

// traceGrid is quickGrid with protocol tracing on: a ring large enough that
// nothing wraps (dropped events downgrade the checker), and a slightly
// longer window so every protocol path — enqueue, park, push, hand-off,
// forward — actually fires.
func traceGrid() grid {
	g, _ := quickGrid()
	g.base.Trace, g.base.TraceCap = true, 1<<19
	g.base.WorkersPerNode, g.base.Duration = 4, 120*time.Millisecond
	return g
}

// requireCleanTrace asserts the run recorded a complete trace, so the
// oracle verdict the cell already failed on was the full check, not the
// truncated one.
func requireCleanTrace(t *testing.T, res testbed.Report) {
	t.Helper()
	if res.TraceEvents == 0 {
		t.Fatal("tracing enabled but no events recorded")
	}
	if res.TraceDropped != 0 {
		t.Fatalf("ring wrapped (%d events dropped) — raise TraceCap so the full check runs", res.TraceDropped)
	}
	t.Logf("protocol check ok over %d events", res.TraceEvents)
}

// TestProtocolTraceCleanAllBenchmarks replays every benchmark's merged
// event trace through the protocol oracle on a reliable network: all six
// must satisfy lock exclusion, forwarding monotonicity, the hand-off head
// rule, park closure and reply correlation.
func TestProtocolTraceCleanAllBenchmarks(t *testing.T) {
	for _, app := range paperApps {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			res, err := traceGrid().cell(context.Background(), app, 0.5, 3, testbed.RTS)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Commits == 0 {
				t.Fatal("no commits")
			}
			requireCleanTrace(t, res)
		})
	}
}

// TestProtocolTraceLossyAllBenchmarks repeats the oracle check under the
// chaos fault model (15% drop plus duplication and reordering): message
// loss may change WHICH protocol events occur — timeouts instead of pushes,
// retransmitted lock requests and homes messages — but never in an order
// the invariants forbid.
func TestProtocolTraceLossyAllBenchmarks(t *testing.T) {
	for _, app := range paperApps {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			g := traceGrid()
			g.base.Duration = 300 * time.Millisecond
			g.base.Drop, g.base.Duplicate, g.base.Reorder = 0.15, 0.05, 0.05
			g.base.MaxExtraDelay = time.Millisecond
			res, err := g.cell(context.Background(), app, 0.5, 3, testbed.RTS)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.Commits == 0 {
				t.Fatal("no commits under 15% loss")
			}
			requireCleanTrace(t, res)
		})
	}
}

// TestMetricsTableRendersBreakdown pins the cell's output surface: the
// per-cause abort breakdown with mean attempt times, and the trace verdict
// line when tracing is on.
func TestMetricsTableRendersBreakdown(t *testing.T) {
	res, err := traceGrid().cell(context.Background(), "bank", 0.5, 3, testbed.RTS)
	if err != nil {
		t.Fatal(err)
	}
	out := metricsTable(res)
	if !strings.Contains(out, "commit") || !strings.Contains(out, "tx/s") {
		t.Fatalf("no commit line:\n%s", out)
	}
	if !strings.Contains(out, "mean=") {
		t.Fatalf("no mean attempt time rendered:\n%s", out)
	}
	if !strings.Contains(out, "trace-events") || !strings.Contains(out, "protocol-check ok") {
		t.Fatalf("no trace verdict line:\n%s", out)
	}
	// Every abort cause that occurred must have its own labelled line.
	for c, n := range res.Metrics.Aborts {
		if n > 0 && !strings.Contains(out, "abort:"+c.String()) {
			t.Fatalf("cause %s (count %d) missing from:\n%s", c, n, out)
		}
	}
	if res.Metrics.Latency[stm.LatencyCommitKey].Count() != res.Metrics.Commits {
		t.Fatalf("commit latency count %d != commits %d",
			res.Metrics.Latency[stm.LatencyCommitKey].Count(), res.Metrics.Commits)
	}
}
