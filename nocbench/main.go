// Command nocbench is the repository's benchmark. It runs one named
// workload through the simulator's public entry points, prints every
// metric by name with its unit, checks that the simulated results are
// correct, and ends with one JSON line:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics: host numbers
// (wall time, simulation speed, set-up time, memory) measured with no
// instrumentation, plus the simulated averages every workload defines.
// With -trace 1 the run alternates untraced and traced passes over the
// same batch and reports the per-layer metrics (README.md has the layer
// map). Build and run it through run.sh; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// defaultSeed is the seed used when none is given; heldOutSeed was kept
// out of tuning so later claims can be checked on it.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nocbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for checking claims: %d)", heldOutSeed))
	seconds := fs.Int("seconds", 20, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	outdir := fs.String("outdir", ".bench_build", "directory for the span and profile files of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sel := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "nocbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		sel = []*workload{w}
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "nocbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, outdir: *outdir}
	for _, w := range sel {
		runtime.GOMAXPROCS(w.procs)
		var (
			rep report
			err error
		)
		if *trace == 1 {
			rep, err = tracedRun(w, opts)
		} else {
			rep, err = timedRun(w, opts)
		}
		if err != nil {
			fmt.Fprintf(stderr, "nocbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := printReport(stdout, w, opts, *trace == 1, rep); err != nil {
			fmt.Fprintf(stderr, "nocbench: %s: %v\n", w.name, err)
			return 1
		}
	}
	return 0
}

// options are the run's settings from the command line.
type options struct {
	seed    int64
	seconds int
	outdir  string
}

// metric is one reported value. Kind says what it measures: "host" (the
// simulator on this machine, subject to noise), "simulated" (the
// modelled NoC; repeats exactly for a seed) or "sampled" (a CPU-profile
// share of the traced process).
type metric struct {
	Name  string
	Value float64
	Unit  string
	Kind  string
}

// report is what a run prints: its metrics, the JSON-visible subset,
// the run counts and the correctness verdict.
type report struct {
	metrics   []metric
	json      []string // names that go into the final JSON line, in order
	attempted int
	failed    int
	problems  []string // failed correctness checks; empty when correct
	notes     []string // failed runs and other facts worth a line
}

func printReport(w io.Writer, wl *workload, o options, traced bool, rep report) error {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# nocbench workload=%s seed=%d seconds=%d mode=%s\n", wl.name, o.seed, o.seconds, mode)
	for _, kv := range provenance(o) {
		fmt.Fprintf(w, "# %s=%s\n", kv[0], kv[1])
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%-32s %16.6g %-8s %s\n", m.Name, m.Value, m.Unit, m.Kind)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := map[string]metric{}
	for _, m := range rep.metrics {
		byName[m.Name] = m
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jm{}}
	for _, n := range rep.json {
		m := byName[n]
		out.Metrics[n] = jm{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding the result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
