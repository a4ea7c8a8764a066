// Command bench is the repository's benchmark: open-loop bank traffic
// against a four-node cluster at default settings, over a 1 ms in-memory
// WAN and over loopback TCP. It reports end-to-end operation latency,
// goodput, messages and CPU per operation, a per-layer message-and-time
// budget from a traced run, and layer micro-timings, and it checks the
// outputs. See README.md for the workloads, the metrics and how they
// interact.
//
// Two ways to run it, both `go run ./bench` from the repository root:
//
//	-workload W -seed N -seconds S -trace 0|1
//	    one workload, one result object as the last line of stdout (the
//	    BENCHMARK.json contract): end-to-end metrics with -trace 0,
//	    per-layer metrics and micro-timings with -trace 1.
//	[-workloads a,b] [-seed N] [-repeat N] [-quick] [-out F] [-spans F]
//	    the whole suite as one JSON document with provenance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// plan fixes the lengths of a workload's runs.
type plan struct {
	TimedWarm, TimedWindow   time.Duration
	TracedWarm, TracedWindow time.Duration
	Setups                   int           // set-up repetitions in the timed run; setup_s is their median
	Micro                    time.Duration // budget of each micro-timing loop
}

var (
	fullPlan  = plan{3 * time.Second, 24 * time.Second, 2 * time.Second, 12 * time.Second, 3, time.Second}
	quickPlan = plan{time.Second, 3 * time.Second, time.Second, 3 * time.Second, 1, 50 * time.Millisecond}
)

// workloadReport is everything measured on one workload.
type workloadReport struct {
	Name      string  `json:"name"`
	Why       string  `json:"why"`
	Fabric    string  `json:"fabric"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Outputs   string  `json:"outputs"` // the output check of the timed run, in words
	EndToEnd  metrics `json:"end_to_end"`
	PerLayer  metrics `json:"per_layer,omitempty"`
}

// provenance stamps a result with what produced it.
type provenance struct {
	Commit       string  `json:"commit"`
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Seed         int64   `json:"seed"`
	TimedWarmS   float64 `json:"timed_warmup_s"`
	TimedWindowS float64 `json:"timed_window_s"`
	TracedWarmS  float64 `json:"traced_warmup_s"`
	TracedWinS   float64 `json:"traced_window_s"`
	WallS        float64 `json:"wall_s"`
	// The timer calibration: a run whose memnet_rtt_ms_1ms differs from
	// the baseline's by more than 15 % ran on a different timer and its
	// wan-* latencies do not compare.
	MemnetRTT0   float64 `json:"memnet_rtt_ms_0"`
	MemnetRTT1ms float64 `json:"memnet_rtt_ms_1ms"`
}

// suiteReport is one pass over the workloads plus the micro-timings.
type suiteReport struct {
	Workloads []workloadReport `json:"workloads"`
	Micro     metrics          `json:"micro"`
}

type document struct {
	Provenance    provenance    `json:"provenance"`
	Sets          []suiteReport `json:"sets"`
	Disagreements []string      `json:"disagreements,omitempty"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// measureTimed makes the timed run: only the counting tap is attached.
func measureTimed(w workload, seed int64, p plan) (*runResult, workloadReport, error) {
	r, err := run(runSpec{W: w, Seed: seed, Warm: p.TimedWarm, Window: p.TimedWindow, Setups: p.Setups})
	if err != nil {
		return nil, workloadReport{}, fmt.Errorf("%s: timed run: %w", w.Name, err)
	}
	return r, workloadReport{
		Name: w.Name, Why: w.Why, Fabric: w.Fabric.String(),
		Correct:   r.Verdict.ok(),
		Attempted: r.Drive.Admitted,
		Failed:    r.failed(),
		Outputs:   r.Verdict.String(),
		EndToEnd:  r.endToEnd(),
	}, nil
}

// measureTraced makes the traced run of the same workload and seed —
// and, where the workload asks, one more with TFA in RTS's place — and turns it
// into the per-layer metrics. It reports whether the traced run's own
// outputs were correct.
func measureTraced(w workload, seed int64, p plan, timed *runResult, spans *spanWriter) (metrics, bool, error) {
	spec := runSpec{W: w, Seed: seed, Warm: p.TracedWarm, Window: p.TracedWindow, Traced: true, Setups: 1}
	r, err := run(spec)
	if err != nil {
		return nil, false, fmt.Errorf("%s: traced run: %w", w.Name, err)
	}
	if err := spans.write(w.Name, r); err != nil {
		return nil, false, err
	}
	var rtsOverTFA float64
	if w.VersusTFA {
		spec.TFA = true
		tfa, err := run(spec)
		if err != nil {
			return nil, false, fmt.Errorf("%s: TFA run: %w", w.Name, err)
		}
		rtsOverTFA = ratio(tfa.endToEnd()["op_p50_ms"].Value, r.endToEnd()["op_p50_ms"].Value)
	}
	if r.OracleErr != nil {
		fmt.Fprintf(os.Stderr, "%s: trace oracle: %v\n", w.Name, r.OracleErr)
	}
	return r.perLayer(timed, rtsOverTFA), r.Verdict.ok(), nil
}

// contractMain serves one BENCHMARK.json invocation.
func contractMain(name string, seed int64, seconds, traceOn int, spansPath string) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	window := time.Duration(seconds) * time.Second
	p := plan{TimedWarm: 3 * time.Second, TimedWindow: window, Setups: 3}
	if traceOn != 0 {
		// A traced invocation splits its seconds between the untraced
		// reference the overhead is measured against and the traced run.
		p = plan{
			TimedWarm: 2 * time.Second, TimedWindow: window * 2 / 5,
			TracedWarm: 2 * time.Second, TracedWindow: window * 3 / 5,
			Setups: 1, Micro: 200 * time.Millisecond,
		}
	}
	timed, rep, err := measureTimed(w, seed, p)
	if err != nil {
		return err
	}
	// The contract's end-to-end metrics are the ones with a relative
	// bound; the rest travel as attempted/failed or with the per-layer set.
	out := metrics{}
	for _, d := range endToEnd {
		if d.Bound > 0 {
			out[d.Name] = rep.EndToEnd[d.Name]
		}
	}
	if traceOn != 0 {
		spans, err := newSpanWriter(spansPath)
		if err != nil {
			return err
		}
		layers, correct, err := measureTraced(w, seed, p, timed, spans)
		if err != nil {
			return err
		}
		if err := spans.close(); err != nil {
			return err
		}
		mic, err := micro(p.Micro)
		if err != nil {
			return err
		}
		for k, v := range mic {
			layers[k] = v
		}
		out = layers
		rep.Correct = rep.Correct && correct
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d: %s\n", w.Name, seed, rep.Outputs)
	printTable(os.Stderr, w.Name, out)

	type unitValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]unitValue `json:"metrics"`
	}{rep.Correct, max(1, rep.Attempted), rep.Failed, map[string]unitValue{}}
	for k, v := range out {
		line.Metrics[k] = unitValue{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !rep.Correct {
		return fmt.Errorf("%s: output check failed: %s", w.Name, rep.Outputs)
	}
	return nil
}

// suiteMain runs the selected workloads `repeat` times and writes one
// document. With repeat > 1 it fails unless the sets agree.
func suiteMain(selected []workload, seed int64, p plan, repeat int, gate bool, outPath, spansPath string) error {
	start := time.Now()
	doc := document{Provenance: provenance{
		Commit: gitCommit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed,
		TimedWarmS: p.TimedWarm.Seconds(), TimedWindowS: p.TimedWindow.Seconds(),
		TracedWarmS: p.TracedWarm.Seconds(), TracedWinS: p.TracedWindow.Seconds(),
	}}
	spans, err := newSpanWriter(spansPath)
	if err != nil {
		return err
	}
	allCorrect := true
	for set := 0; set < repeat; set++ {
		var sr suiteReport
		for _, w := range selected {
			fmt.Fprintf(os.Stderr, "== %s (set %d of %d)\n", w.Name, set+1, repeat)
			timed, rep, err := measureTimed(w, seed, p)
			if err != nil {
				return err
			}
			layers, correct, err := measureTraced(w, seed, p, timed, spans)
			if err != nil {
				return err
			}
			rep.PerLayer = layers
			rep.Correct = rep.Correct && correct
			allCorrect = allCorrect && rep.Correct
			fmt.Fprintf(os.Stderr, "outputs: %s\n", rep.Outputs)
			printTable(os.Stderr, "end to end", rep.EndToEnd)
			printTable(os.Stderr, "per layer", rep.PerLayer)
			sr.Workloads = append(sr.Workloads, rep)
		}
		if sr.Micro, err = micro(p.Micro); err != nil {
			return err
		}
		printTable(os.Stderr, "layer micro-timings", sr.Micro)
		doc.Sets = append(doc.Sets, sr)
	}
	if err := spans.close(); err != nil {
		return err
	}
	doc.Provenance.MemnetRTT0 = doc.Sets[0].Micro["transport.memnet_rtt_ms_0"].Value
	doc.Provenance.MemnetRTT1ms = doc.Sets[0].Micro["transport.memnet_rtt_ms_1ms"].Value
	doc.Provenance.WallS = time.Since(start).Seconds()
	doc.Disagreements = disagreements(doc.Sets)

	text, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	text = append(text, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(text)
	} else {
		err = os.WriteFile(outPath, text, 0o644)
	}
	if err != nil {
		return err
	}
	for _, d := range doc.Disagreements {
		fmt.Fprintln(os.Stderr, "disagree:", d)
	}
	if !allCorrect {
		return fmt.Errorf("output check failed")
	}
	if gate && len(doc.Disagreements) > 0 {
		return fmt.Errorf("%d end-to-end metrics disagree between sets by more than their bound", len(doc.Disagreements))
	}
	return nil
}

// disagreements lists every end-to-end metric of every workload whose
// value in a later set lies outside its bound of the first set's.
func disagreements(sets []suiteReport) []string {
	var out []string
	for si := 1; si < len(sets); si++ {
		for wi, w := range sets[si].Workloads {
			base := sets[0].Workloads[wi]
			for _, d := range endToEnd {
				a, b := base.EndToEnd[d.Name].Value, w.EndToEnd[d.Name].Value
				if !d.agrees(a, b) {
					out = append(out, fmt.Sprintf("%s %s: set 1 %.4g, set %d %.4g %s (bound %.0f%%, abs %g)",
						w.Name, d.Name, a, si+1, b, d.Unit, d.Bound*100, d.Abs))
				}
			}
		}
	}
	return out
}

func main() {
	var (
		one       = flag.String("workload", "", "run this one workload and print one result object (BENCHMARK.json contract)")
		seconds   = flag.Int("seconds", 15, "with -workload: length of the measured window")
		traceOn   = flag.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics")
		seed      = flag.Int64("seed", 1, "seed of every random draw: arrival times, read/write mix, per-operation generators")
		subset    = flag.String("workloads", "", "comma-separated subset of workloads to run (default all)")
		repeat    = flag.Int("repeat", 1, "run the suite this many times; above 1, exit non-zero unless the sets agree within the metrics' bounds")
		quick     = flag.Bool("quick", false, "smoke mode: 3 s windows, no agreement gate")
		outPath   = flag.String("out", "", "write the JSON document here instead of stdout")
		spansPath = flag.String("spans", "", "write the traced runs' op, rpc and serve spans here as JSONL")
		livelock  = flag.Bool("livelock", false, "run the stale-directory livelock reproduction instead of the workloads (see README)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected argument", flag.Arg(0))
		os.Exit(2)
	}

	var err error
	switch {
	case *one != "":
		err = contractMain(*one, *seed, *seconds, *traceOn, *spansPath)
	default:
		selected := workloads
		if *livelock {
			selected = []workload{livelockRepro}
		} else if *subset != "" {
			selected = nil
			for _, name := range strings.Split(*subset, ",") {
				w, ok := workloadByName(strings.TrimSpace(name))
				if !ok {
					fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
					os.Exit(2)
				}
				selected = append(selected, w)
			}
		}
		p := fullPlan
		if *quick {
			p = quickPlan
		}
		err = suiteMain(selected, *seed, p, max(1, *repeat), !*quick, *outPath, *spansPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
