// Command benchhot measures the hot-path cycle kernel — the same
// scenarios as the BenchmarkStep* benchmarks — and emits the results as
// machine-readable JSON (BENCH_hotpath.json), so the repo's perf
// trajectory is recorded alongside the code instead of living in
// someone's terminal scrollback.
//
// The report carries a provenance stamp — the vcs revision the binary
// was built from, the Go version, GOMAXPROCS and the CPU model — so
// every committed number names the code and host that produced it.
// Build the binary (go build stamps vcs information; go run does not)
// and run it from a clean checkout to record a revision.
//
// Usage:
//
//	benchhot                         # print JSON to stdout
//	benchhot -benchjson BENCH_hotpath.json
//	benchhot -benchtime 2s -scenario StepUniform/8x8
//	benchhot -scenario StepSharded/32x32 -shards 4
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/noc"
)

// warmupCycles matches stepBenchWarmup in hotpath_bench_test.go: steady
// state is what the hot-path contract is about.
const warmupCycles = 2000

// scenario is one benchmarked configuration.
type scenario struct {
	Name   string  `json:"name"`
	Scheme string  `json:"scheme"`
	W      int     `json:"w"`
	H      int     `json:"h"`
	Rate   float64 `json:"rate"`
	// Shards is the intra-sim spatial shard count (0/1 = serial stepper).
	Shards int `json:"shards,omitempty"`

	NsPerCycle     float64 `json:"ns_per_cycle"`
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	BytesPerCycle  int64   `json:"bytes_per_cycle"`
	AllocsPerCycle int64   `json:"allocs_per_cycle"`
	Cycles         int64   `json:"cycles"`
}

// report is the top-level JSON document.
type report struct {
	Benchtime  string     `json:"benchtime"`
	Provenance stamp      `json:"provenance"`
	Scenarios  []scenario `json:"scenarios"`
}

// stamp records what produced the numbers: the code, the toolchain and
// the host.
type stamp struct {
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu"`
}

func provenance() stamp {
	st := stamp{
		Revision: "unknown", Modified: "unknown",
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPU: cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Revision = s.Value
			case "vcs.modified":
				st.Modified = s.Value
			}
		}
	}
	return st
}

// cpuModel reads the first "model name" from /proc/cpuinfo ("unknown"
// where that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func scenarios() []scenario {
	return []scenario{
		{Name: "StepUniform/4x4", Scheme: "FastPass", W: 4, H: 4, Rate: 0.10},
		{Name: "StepUniform/8x8", Scheme: "FastPass", W: 8, H: 8, Rate: 0.10},
		{Name: "StepLowLoad/4x4", Scheme: "FastPass", W: 4, H: 4, Rate: 0.02},
		{Name: "StepLowLoad/8x8", Scheme: "FastPass", W: 8, H: 8, Rate: 0.02},
		{Name: "StepIdle/4x4", Scheme: "FastPass", W: 4, H: 4, Rate: 0},
		{Name: "StepIdle/8x8", Scheme: "FastPass", W: 8, H: 8, Rate: 0},
		{Name: "StepUniformEscapeVC/8x8", Scheme: "EscapeVC", W: 8, H: 8, Rate: 0.10},
		// The intra-sim scaling rows (ISSUE 7): the same mesh stepped by
		// K spatial shards, bit-identical at every K, so ns/cycle is the
		// only number allowed to move.
		{Name: "StepSharded/32x32/shards1", Scheme: "FastPass", W: 32, H: 32, Rate: 0.10, Shards: 1},
		{Name: "StepSharded/32x32/shards2", Scheme: "FastPass", W: 32, H: 32, Rate: 0.10, Shards: 2},
		{Name: "StepSharded/32x32/shards4", Scheme: "FastPass", W: 32, H: 32, Rate: 0.10, Shards: 4},
		{Name: "StepSharded/32x32/shards8", Scheme: "FastPass", W: 32, H: 32, Rate: 0.10, Shards: 8},
		{Name: "StepSharded/64x64/shards1", Scheme: "FastPass", W: 64, H: 64, Rate: 0.10, Shards: 1},
		{Name: "StepSharded/64x64/shards4", Scheme: "FastPass", W: 64, H: 64, Rate: 0.10, Shards: 4},
	}
}

func schemeByName(name string) noc.Scheme {
	s, err := noc.ParseScheme(name)
	if err != nil {
		log.Fatal(err)
	}
	return s
}

// measure runs one scenario under testing.Benchmark and fills in its
// result fields.
func measure(sc *scenario) {
	scheme := schemeByName(sc.Scheme)
	res := testing.Benchmark(func(b *testing.B) {
		inst := sim.Build(sim.Options{Scheme: scheme, W: sc.W, H: sc.H, Seed: 1, Shards: sc.Shards})
		gen := &traffic.Generator{
			Pattern: traffic.Uniform, Rate: sc.Rate, W: sc.W, H: sc.H,
			Pool: inst.UsePool(),
		}
		rng := rand.New(rand.NewSource(0x5eed))
		tick := func() {
			for _, pkt := range gen.Tick(inst.Cycle(), rng) {
				inst.Enqueue(pkt)
			}
			inst.Step()
		}
		for c := 0; c < warmupCycles; c++ {
			tick()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tick()
		}
	})
	sc.Cycles = int64(res.N)
	sc.NsPerCycle = float64(res.NsPerOp())
	if res.T > 0 {
		sc.CyclesPerSec = float64(res.N) / res.T.Seconds()
	}
	sc.BytesPerCycle = res.AllocedBytesPerOp()
	sc.AllocsPerCycle = res.AllocsPerOp()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchhot: ")

	// testing.Benchmark honours -test.benchtime; register the testing
	// flags up front so it can be set from our own -benchtime flag.
	testing.Init()
	out := flag.String("benchjson", "", "write the JSON report to this file (default: stdout)")
	benchtime := flag.Duration("benchtime", time.Second, "minimum measurement time per scenario")
	filter := flag.String("scenario", "", "only run scenarios whose name contains this substring")
	shards := flag.Int("shards", 0, "override every scenario's intra-sim shard count (0 = use each scenario's own)")
	flag.Parse()

	if err := flag.CommandLine.Set("test.benchtime", benchtime.String()); err != nil {
		log.Fatalf("setting benchtime: %v", err)
	}

	rep := report{Benchtime: benchtime.String(), Provenance: provenance()}
	for _, sc := range scenarios() {
		if *filter != "" && !strings.Contains(sc.Name, *filter) {
			continue
		}
		if *shards > 0 {
			sc.Shards = *shards
		}
		measure(&sc)
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/cycle %14.0f cycles/sec %6d B/cycle %4d allocs/cycle\n",
			sc.Name, sc.NsPerCycle, sc.CyclesPerSec, sc.BytesPerCycle, sc.AllocsPerCycle)
		rep.Scenarios = append(rep.Scenarios, sc)
	}
	if len(rep.Scenarios) == 0 {
		log.Fatalf("no scenario matches %q", *filter)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("encoding report: %v", err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatalf("writing %s: %v", *out, err)
	}
	log.Printf("wrote %s (%d scenarios)", *out, len(rep.Scenarios))
}
