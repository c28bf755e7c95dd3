package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// setupShare of a run's time goes to timing the workload's set-up,
	// repeated at least minSetups times; setup_s is the median.
	setupShare = 0.05
	minSetups  = 15
	// setupSample is the least time one set-up sample spans; a sample
	// repeats the set-up that long and reports the mean, so a set-up of
	// a millisecond is not measured at timer and page-fault granularity.
	setupSample = 20 * time.Millisecond
	// minBatches is the fewest timed batches a run takes, whatever
	// -seconds says, so wall_s is always a median.
	minBatches = 3
)

// e2eJSON are the end-to-end metrics of the final JSON line: those
// every workload defines. sat_throughput and delivered_frac_p50, which
// one workload each defines, are printed by it and also reported by the
// traced run as fastpass.sat_throughput and campaign.delivered_frac_p50;
// failed_run_frac is the line's failed/attempted.
var e2eJSON = []string{
	"wall_s", "node_cycles_per_s", "setup_s", "peak_rss_mb", "alloc_bytes_per_node_cycle",
	"avg_latency_cycles", "p99_latency_cycles", "exec_cycles",
}

// layers are the per-layer metrics of a traced run, in print order,
// with their units and kinds.
var layers = []struct{ name, unit, kind string }{
	{"router.cpu_share", "frac", "sampled"},
	{"router.flits_routed", "count", "simulated"},
	{"router.switch_stalls", "count", "simulated"},
	{"router.grant_ratio", "ratio", "simulated"},
	{"router.ns_per_flit_routed", "ns", "host"},
	{"network.step_ns_p50", "ns", "host"},
	{"network.step_ns_p99", "ns", "host"},
	{"network.active_routers_mean", "routers", "simulated"},
	{"network.link_flits", "count", "simulated"},
	{"nic.cpu_share", "frac", "sampled"},
	{"nic.source_backlog_mean", "packets", "simulated"},
	{"fastpass.promoted", "count", "simulated"},
	{"fastpass.drops", "count", "simulated"},
	{"fastpass.fast_frac", "ratio", "simulated"},
	{"fastpass.heals", "count", "simulated"},
	{"fastpass.cpu_share", "frac", "sampled"},
	{"fastpass.sat_throughput", "pkt/node/cyc", "simulated"},
	{"escapevc.sat_throughput", "pkt/node/cyc", "simulated"},
	{"sim.bisect_probes", "count", "simulated"},
	{"sim.bisect_cycles", "cycles", "simulated"},
	{"sim.run_s_p50", "s", "host"},
	{"sim.run_s_max", "s", "host"},
	{"protocol.tick_ns_p50", "ns", "host"},
	{"protocol.issued", "count", "simulated"},
	{"protocol.completed", "count", "simulated"},
	{"protocol.stalled", "count", "simulated"},
	{"protocol.stall_ratio", "ratio", "simulated"},
	{"faults.link_failures", "count", "simulated"},
	{"faults.credit_losses", "count", "simulated"},
	{"invariant.cpu_share", "frac", "sampled"},
	{"invariant.trips", "count", "simulated"},
	{"campaign.cell_s_p50", "s", "host"},
	{"campaign.cell_s_max", "s", "host"},
	{"campaign.delivered_frac_p50", "ratio", "simulated"},
	{"parallel.busy_frac", "frac", "host"},
	{"topology.derive_ms", "ms", "host"},
	{"irrnet.cpu_share", "frac", "sampled"},
	{"irrnet.alloc_bytes_per_node_cycle", "B", "host"},
	{"irrnet.promoted", "count", "simulated"},
	{"gc.cpu_share", "frac", "sampled"},
	{"stats.cpu_share", "frac", "sampled"},
	{"traffic.cpu_share", "frac", "sampled"},
	{"trace_overhead_frac", "frac", "host"},
}

// pass is one measured batch.
type pass struct {
	b     batchResult
	wall  float64 // s
	alloc float64 // bytes allocated during the batch
	rss   float64 // peak resident set size sampled during the batch, bytes
}

// measure runs one batch with the garbage collector settled first.
func measure(w *workload, seed int64, tr *tracer) pass {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop := sampleRSS()
	t := time.Now()
	b := w.batch(seed, tr)
	wall := time.Since(t).Seconds()
	rss := stop()
	runtime.ReadMemStats(&m1)
	return pass{b: b, wall: wall, alloc: float64(m1.TotalAlloc - m0.TotalAlloc), rss: rss}
}

// rssEvery is the resident-set sampling period. A per-batch peak, with
// the median over batches reported, is far steadier than the process's
// lifetime high-water mark, which one garbage-collection overshoot sets.
const rssEvery = 5 * time.Millisecond

// sampleRSS samples the process's resident set size until the returned
// function is called; that function stops the sampler, waits for it and
// returns the peak in bytes.
func sampleRSS() func() float64 {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		m := readRSS()
		for {
			select {
			case <-tick.C:
				m = max(m, readRSS())
			case <-done:
				peak <- max(m, readRSS())
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// readRSS reads the resident set size from /proc/self/statm (0 where
// it cannot).
func readRSS() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize())
}

// ledger tallies runs across passes and holds each pass to the first
// one's simulated results.
type ledger struct {
	rep   *report
	first *batchResult
}

func (l *ledger) add(b batchResult, what string) {
	l.rep.attempted += len(b.runs)
	if l.first == nil {
		l.first = &b
		for _, r := range b.runs {
			if r.failed != "" {
				l.rep.notes = append(l.rep.notes, fmt.Sprintf("run %s failed: %s", r.name, r.failed))
			}
		}
	}
	for i, r := range b.runs {
		if r.failed != "" {
			l.rep.failed++
		}
		if r.checkFailed && l.first != &b {
			continue // reported once, from the first pass
		}
		if r.checkFailed {
			l.rep.problems = append(l.rep.problems, fmt.Sprintf("%s: %s", r.name, r.failed))
		}
		if i >= len(l.first.runs) || l.first.runs[i].name != r.name {
			l.rep.problems = append(l.rep.problems, fmt.Sprintf("%s pass ran a different batch", what))
			return
		}
		if want := l.first.runs[i].sim; r.sim != want {
			l.rep.problems = append(l.rep.problems, fmt.Sprintf("%s: %s results differ from the first pass:\n  got  %s\n  want %s", r.name, what, r.sim, want))
		}
	}
}

// timedRun is the untraced run: set-up timed for setupShare of the run,
// then whole batches for the rest of the requested time.
func timedRun(w *workload, o options) (report, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	setupEnd := start.Add(time.Duration(setupShare * float64(o.seconds) * float64(time.Second)))
	var setups []float64
	for len(setups) < minSetups || time.Now().Before(setupEnd) {
		runtime.GC()
		t := time.Now()
		n := 0
		for n == 0 || time.Since(t) < setupSample {
			w.setup(o.seed)
			n++
		}
		setups = append(setups, time.Since(t).Seconds()/float64(n))
	}
	var rep report
	l := ledger{rep: &rep}
	var walls, allocs, rss []float64
	for len(walls) < minBatches || time.Now().Add(time.Duration(median(walls)*float64(time.Second))).Before(deadline) {
		p := measure(w, o.seed, nil)
		l.add(p.b, "repeated")
		walls = append(walls, p.wall)
		allocs = append(allocs, p.alloc)
		rss = append(rss, p.rss)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("batch wall times (s): %.3f", walls))
	b := *l.first
	wall := median(walls)
	nc := float64(b.nodeCycles)
	rep.metrics = []metric{
		{"wall_s", wall, "s", "host"},
		{"node_cycles_per_s", nc / wall, "1/s", "host"},
		{"setup_s", median(setups), "s", "host"},
		{"peak_rss_mb", median(rss) / (1 << 20), "MB", "host"},
		{"alloc_bytes_per_node_cycle", median(allocs) / nc, "B", "host"},
		{"avg_latency_cycles", simValue(b, "avg_latency_cycles"), "cycles", "simulated"},
		{"p99_latency_cycles", simValue(b, "p99_latency_cycles"), "cycles", "simulated"},
		{"exec_cycles", simValue(b, "exec_cycles"), "cycles", "simulated"},
	}
	for _, h := range []struct{ name, unit string }{{"sat_throughput", "pkt/node/cyc"}, {"delivered_frac_p50", "ratio"}} {
		if v, ok := b.sim[h.name]; ok {
			rep.metrics = append(rep.metrics, metric{h.name, v, h.unit, "simulated"})
		}
	}
	rep.metrics = append(rep.metrics,
		metric{"failed_run_frac", float64(rep.failed) / float64(rep.attempted), "ratio", "outcome"},
		metric{"batches", float64(len(walls)), "count", "host"})
	rep.json = e2eJSON
	finite(&rep)
	return rep, nil
}

func simValue(b batchResult, name string) float64 {
	if v, ok := b.sim[name]; ok {
		return v
	}
	return math.NaN()
}

// finite turns an undefined JSON metric into a failed check (and a 0,
// which JSON can carry).
func finite(rep *report) {
	want := map[string]bool{}
	for _, n := range rep.json {
		want[n] = true
	}
	for i, m := range rep.metrics {
		if want[m.Name] && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			rep.problems = append(rep.problems, fmt.Sprintf("metric %s is undefined", m.Name))
			rep.metrics[i].Value = 0
		}
	}
}

// tracedRun alternates an untraced and a traced pass over the batch for
// the requested time (at least one pair), checks that both give the
// same simulated results, and reports the per-layer metrics: counts
// from the traced pass, host timings as medians over traced passes.
func tracedRun(w *workload, o options) (report, error) {
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var rep report
	l := ledger{rep: &rep}
	var (
		uWalls, tWalls []float64
		pairWalls      []float64
		perPass        []map[string]float64
		lastTr         *tracer
		lastProf       []byte
	)
	for len(tWalls) == 0 || time.Now().Add(time.Duration(median(pairWalls)*float64(time.Second))).Before(deadline) {
		u := measure(w, o.seed, nil)
		l.add(u.b, "untraced")
		tr := newTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rep, fmt.Errorf("cpu profile: %w", err)
		}
		t := measure(w, o.seed, tr)
		pprof.StopCPUProfile()
		l.add(t.b, "traced")
		shares, err := leafShares(prof.Bytes())
		if err != nil {
			return rep, fmt.Errorf("reading the cpu profile: %w", err)
		}
		uWalls = append(uWalls, serialWall(u))
		tWalls = append(tWalls, t.wall)
		pairWalls = append(pairWalls, u.wall+t.wall)
		perPass = append(perPass, layerMetrics(w, u, t, tr, shares))
		lastTr, lastProf = tr, prof.Bytes()
	}
	base := filepath.Join(o.outdir, fmt.Sprintf("trace-%s-seed%d", w.name, o.seed))
	if err := os.MkdirAll(o.outdir, 0o755); err != nil {
		return rep, err
	}
	prov := append([][2]string{{"workload", w.name}}, provenance(o)...)
	if err := lastTr.writeSpans(base+".spans.jsonl", prov); err != nil {
		return rep, fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", lastProf, 0o644); err != nil {
		return rep, fmt.Errorf("writing the profile: %w", err)
	}
	rep.notes = append(rep.notes, "spans and profile of the last traced pass: "+base+".{spans.jsonl,cpu.pprof}",
		fmt.Sprintf("%d untraced/traced pass pairs; campaign passes compare -j %d (untraced) with -j 1 (traced)", len(tWalls), campaignJobs))
	for _, l := range layers {
		var xs []float64
		for _, m := range perPass {
			xs = append(xs, m[l.name])
		}
		v := median(xs)
		if l.name == "trace_overhead_frac" {
			v = median(tWalls)/median(uWalls) - 1
		}
		rep.metrics = append(rep.metrics, metric{l.name, v, l.unit, l.kind})
	}
	for _, l := range layers {
		rep.json = append(rep.json, l.name)
	}
	finite(&rep)
	return rep, nil
}

// serialWall is an untraced pass's wall time, or for a parallel
// campaign pass the summed cell times, the serial time the serial traced
// pass is compared with.
func serialWall(p pass) float64 {
	if len(p.b.cells) == 0 {
		return p.wall
	}
	var s float64
	for _, iv := range p.b.cells {
		s += iv.end.Sub(iv.start).Seconds()
	}
	return s
}

// layerMetrics derives one traced pass's per-layer metrics. Metrics of
// layers a workload does not exercise read 0.
func layerMetrics(w *workload, u, t pass, tr *tracer, shares map[string]float64) map[string]float64 {
	tr.fold()
	m := map[string]float64{}
	for _, layer := range []string{"router", "nic", "fastpass", "invariant", "irrnet", "gc", "stats", "traffic"} {
		m[layer+".cpu_share"] = shares[layer]
	}
	c := tr.tel.counters
	routed, stalls := float64(c["flits_routed"]), float64(c["switch_stalls"])
	m["router.flits_routed"] = routed
	m["router.switch_stalls"] = stalls
	if routed > 0 {
		m["router.grant_ratio"] = routed / (routed + stalls)
		m["router.ns_per_flit_routed"] = shares["router"] * t.wall * 1e9 / routed
	}
	steps := append(tr.durations("cycle"), tr.durations("network.step")...)
	m["network.step_ns_p50"] = quantile(steps, 0.5)
	m["network.step_ns_p99"] = quantile(steps, 0.99)
	if tr.tel.activeRows > 0 {
		m["network.active_routers_mean"] = float64(tr.tel.activeSum) / float64(tr.tel.activeRows)
	}
	m["network.link_flits"] = float64(c["link_flits"])
	if tr.tel.windows > 0 {
		m["nic.source_backlog_mean"] = float64(tr.tel.backlogSum) / float64(tr.tel.windows)
	}
	m["fastpass.promoted"] = float64(c["fp_promoted"])
	m["fastpass.drops"] = float64(c["fp_drops"])
	var runs []float64
	for _, n := range []string{"sim.RunSynthetic", "sim.probe", "sim.RunApp", "campaign.cell", "noc.RunIrregular"} {
		runs = append(runs, tr.durations(n)...)
	}
	m["sim.run_s_p50"] = quantile(runs, 0.5) / 1e9
	m["sim.run_s_max"] = quantile(runs, 1) / 1e9
	m["protocol.tick_ns_p50"] = quantile(tr.durations("protocol.tick"), 0.5)
	m["topology.derive_ms"] = quantile(tr.durations("topology.derive"), 0.5) / 1e6
	if len(u.b.cells) > 0 {
		var cells []float64
		var busy float64
		for _, iv := range u.b.cells {
			d := iv.end.Sub(iv.start).Seconds()
			cells = append(cells, d)
			busy += d
		}
		m["campaign.cell_s_p50"] = quantile(cells, 0.5)
		m["campaign.cell_s_max"] = quantile(cells, 1)
		m["parallel.busy_frac"] = busy / (float64(u.b.jobs) * u.wall)
	}
	if w.name == "irregular" {
		m["irrnet.alloc_bytes_per_node_cycle"] = u.alloc / float64(u.b.nodeCycles)
	}
	m["fastpass.sat_throughput"] = t.b.sim["sat_throughput"]
	m["campaign.delivered_frac_p50"] = t.b.sim["delivered_frac_p50"]
	for _, l := range layers {
		if v, ok := t.b.sim[l.name]; ok {
			m[l.name] = v
		}
		if math.IsNaN(m[l.name]) {
			m[l.name] = 0 // a layer this workload does not time
		}
	}
	return m
}

// median of xs; 0 when empty (the loops above start from no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile of xs (NaN when
// empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
