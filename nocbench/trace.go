package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// span is one timed interval of the traced pass, in ns since the
// tracer's start. parent is the index of the enclosing span, -1 at the
// top.
type span struct {
	name       string
	parent     int32
	start, end int64
}

// telWindow is the telemetry window of traced passes, in cycles.
const telWindow = 10

// tracer records the traced pass from outside the simulator: spans
// around each public call the benchmark makes, per-cycle spans from
// the progress hook, and the simulator's telemetry streams. A nil
// *tracer is the untraced pass: the methods the workloads call on both
// passes are no-ops on nil, so the workloads share one code path.
type tracer struct {
	t0        time.Time
	spans     []span
	open      []int32 // stack of open spans; the traced pass is serial
	probeSpan int32   // open bisection probe, or -1
	cellSpan  int32   // open campaign cell, or -1
	lastCyc   int64   // end of the previous cycle span; -1 before a run's first cycle
	sinks     []*telSink
	tel       telTotals
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), probeSpan: -1, cellSpan: -1, lastCyc: -1,
		tel: telTotals{counters: map[string]int64{}}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: t.now(), end: -1})
	id := int32(len(t.spans) - 1)
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = t.now()
	for n := len(t.open); n > 0; n-- {
		if t.open[n-1] == id {
			t.open = t.open[:n-1]
			break
		}
	}
}

// add records a finished child of the innermost open span.
func (t *tracer) add(name string, start, end int64) {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end})
}

// probe closes the previous bisection probe, if any, and opens the
// next; it runs from SynthConfig.Instrument, just before the probe
// builds its simulator.
func (t *tracer) probe() {
	if t == nil {
		return
	}
	t.endProbe()
	t.probeSpan = t.begin("sim.probe")
}

func (t *tracer) endProbe() {
	if t == nil {
		return
	}
	t.end(t.probeSpan)
	t.probeSpan = -1
}

func (t *tracer) beginCell() {
	if t != nil {
		t.cellSpan = t.begin("campaign.cell")
	}
}

func (t *tracer) endCell() {
	if t != nil {
		t.end(t.cellSpan)
		t.cellSpan = -1
	}
}

// synth instruments a synthetic config for the traced pass: a progress
// callback every cycle (the per-cycle spans) and a telemetry sink per
// built run. Untraced passes leave the config alone.
func (t *tracer) synth(cfg *sim.SynthConfig) {
	if t == nil {
		return
	}
	cfg.ProgressEvery = 1
	cfg.OnProgress = func(sim.Progress) { t.cycle() }
	cfg.Instrument = func(c *sim.SynthConfig) {
		s := &telSink{}
		t.sinks = append(t.sinks, s)
		c.Telemetry = telemetry.Options{Window: telWindow, JSONL: &s.jsonl, NodeCSV: &s.nodes}
		t.lastCyc = -1
	}
}

// cycle closes one per-cycle span at the current time. The first call
// of a run only starts the clock: that cycle also covers the build.
func (t *tracer) cycle() {
	now := t.now()
	if t.lastCyc >= 0 {
		t.add("cycle", t.lastCyc, now)
	}
	t.lastCyc = now
}

// fold reads the telemetry streams of the traced pass into the totals.
// It runs after the pass, so parsing is neither timed nor profiled.
func (t *tracer) fold() {
	for _, s := range t.sinks {
		sum := s.summary(0, math.MaxInt64)
		for k, v := range sum.counters {
			t.tel.counters[k] += v
		}
		t.tel.backlogSum += sum.backlogSum
		t.tel.windows += sum.windows
		t.tel.activeSum += sum.activeSum
		t.tel.activeRows += sum.activeRows
	}
	t.sinks = t.sinks[:0]
}

// telTotals sums telemetry over a traced pass.
type telTotals struct {
	counters   map[string]int64
	backlogSum int64 // source-backlog gauge samples, one per window
	windows    int64
	activeSum  int64 // routers that routed a flit, summed over node-grid rows
	activeRows int64
}

// telSink collects one run's telemetry streams.
type telSink struct{ jsonl, nodes bytes.Buffer }

// telSummary is what the benchmark reads from a telemetry stream.
type telSummary struct {
	counters              map[string]int64 // summed over all windows
	backlogSum            int64
	windows               int64
	lastCycle             int64 // cycles the run simulated
	latMean, latP99       float64
	latSamples            int64
	activeSum, activeRows int64
}

type telRecord struct {
	Meta     json.RawMessage  `json:"meta"`
	Cycle    int64            `json:"cycle"`
	Span     int64            `json:"span"`
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
	Lat      struct {
		Samples int64   `json:"samples"`
		Sum     int64   `json:"sum"`
		Buckets []int64 `json:"buckets"`
	} `json:"lat"`
}

// summary reads the streams. Latency pools the windows lying inside
// [from, to): the mean is exact, and the p99 is interpolated inside the
// log2 histogram bucket that holds it.
func (s *telSink) summary(from, to int64) telSummary {
	sum := telSummary{counters: map[string]int64{}, latMean: math.NaN(), latP99: math.NaN()}
	var hist [telemetry.NumBuckets]int64
	var latSum int64
	for _, line := range bytes.Split(s.jsonl.Bytes(), []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var r telRecord
		if err := json.Unmarshal(line, &r); err != nil || r.Meta != nil {
			continue
		}
		for k, v := range r.Counters {
			sum.counters[k] += v
		}
		sum.backlogSum += r.Gauges["source_backlog"]
		sum.windows++
		sum.lastCycle = r.Cycle
		if r.Cycle-r.Span >= from && r.Cycle <= to {
			sum.latSamples += r.Lat.Samples
			latSum += r.Lat.Sum
			for i, c := range r.Lat.Buckets {
				if i < len(hist) {
					hist[i] += c
				}
			}
		}
	}
	if sum.latSamples > 0 {
		sum.latMean = float64(latSum) / float64(sum.latSamples)
		sum.latP99 = histQuantile(hist[:], 0.99)
	}
	for i, line := range strings.Split(s.nodes.String(), "\n") {
		if i == 0 || line == "" {
			continue // header
		}
		f := strings.Split(line, ",")
		for _, v := range f[min(3, len(f)):] {
			if v != "0" {
				sum.activeSum++
			}
		}
		sum.activeRows++
	}
	return sum
}

// histQuantile interpolates the q-quantile of a telemetry log2
// histogram: bucket 0 is {0}, bucket 1 is {1}, bucket i ≥ 2 is
// [2^(i-1), 2^i).
func histQuantile(h []int64, q float64) float64 {
	var total int64
	for _, c := range h {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range h {
		if c == 0 || float64(cum+c) < rank {
			cum += c
			continue
		}
		if i <= 1 {
			return float64(i)
		}
		lo, hi := float64(int64(1)<<(i-1)), float64(int64(1)<<i)
		return lo + (rank-float64(cum))/float64(c)*(hi-lo)
	}
	return math.NaN()
}

// selfTimes returns each span's duration minus the time its children
// cover (children of a serial trace never overlap).
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// durations returns the durations in ns of the spans with this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= s.start {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines: a provenance line, one line
// per span with its self time, and a per-name summary at the end.
func (t *tracer) writeSpans(path string, prov [][2]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"provenance":{`)
	for i, kv := range prov {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "%q:%q", kv[0], kv[1])
	}
	fmt.Fprintln(w, "}}")
	self := t.selfTimes()
	type agg struct {
		n          int
		total, own int64
	}
	byName := map[string]*agg{}
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
			i, s.parent, s.name, s.start, s.end, self[i])
		a := byName[s.name]
		if a == nil {
			a = &agg{}
			byName[s.name] = a
		}
		a.n++
		a.total += s.end - s.start
		a.own += self[i]
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, `{"summary":%q,"count":%d,"total_ns":%d,"self_ns":%d}`+"\n", n, a.n, a.total, a.own)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
