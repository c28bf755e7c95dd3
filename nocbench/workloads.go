package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/irrnet"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
	appwl "repro/internal/workload"
	"repro/noc"
)

// workload is one named set of inputs. batch runs its fixed batch of
// simulations once; tr is nil in an untraced pass. setup constructs
// every simulator the batch builds, without stepping any of them, and
// is what setup_s times. procs is the GOMAXPROCS the workload runs at:
// the number of simulations it runs at once. A serial workload then
// measures one core's work, garbage collection included, and does not
// slow down when something else takes the machine's other cores.
type workload struct {
	name  string
	why   string
	procs int
	batch func(seed int64, tr *tracer) batchResult
	setup func(seed int64)
}

// workloads are the benchmark's four workloads; README.md says why each
// exists and which layers it loads.
var workloads = []*workload{
	{
		name:  "synth-sat",
		why:   "open-loop synthetic load from low rate to past saturation plus the Fig. 8 bisection: router allocation dominates",
		procs: 1,
		batch: synthSat,
		setup: synthSetup,
	},
	{
		name:  "app-coherence",
		why:   "closed-loop Fig. 10 coherence traffic: protocol engine and NIC backpressure, mostly empty VCs",
		procs: 1,
		batch: appCoherence,
		setup: appSetup,
	},
	{
		name:  "campaign-faults",
		why:   "reliability campaign: faults, watchdogs, healing, aggregation and the parallel runner",
		procs: campaignJobs,
		batch: campaignFaults,
		setup: campaignSetup,
	},
	{
		name:  "irregular",
		why:   "FastPass lanes on random irregular graphs: the separate irrnet engine, allocation-heavy",
		procs: 1,
		batch: irregular,
		setup: irregularSetup,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// runResult is one simulation of a batch. sim is a canonical rendering
// of its simulated statistics, compared bit for bit between passes.
// failed is empty for a run that succeeded; checkFailed marks a failed
// correctness check or a crash, as opposed to a timeout.
type runResult struct {
	name        string
	sim         string
	failed      string
	checkFailed bool
}

// batchResult is one pass over a workload's batch: its runs, the
// router-cycles it simulated, and the simulated metrics by name.
type batchResult struct {
	runs       []runResult
	nodeCycles int64
	sim        map[string]float64
	// cells are the host intervals of campaign cells in a parallel
	// pass, and jobs its worker count (parallel.busy_frac).
	cells []interval
	jobs  int
}

type interval struct{ start, end time.Time }

// safely runs f and turns a panic into a failure message.
func safely(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprintf("panic: %v", r)
		}
	}()
	f()
	return ""
}

// latAcc pools the latency of a workload's scored runs: the mean is
// weighted by sample count (the pooled mean), the p99 is the median of
// the runs' own p99s, which near-saturation runs cannot swing.
type latAcc struct {
	sum, n float64
	p99s   []float64
}

func (a *latAcc) add(avg, p99 float64, samples int) {
	if samples <= 0 || math.IsNaN(avg) || math.IsNaN(p99) {
		return
	}
	a.sum += avg * float64(samples)
	a.n += float64(samples)
	a.p99s = append(a.p99s, p99)
}

func (a *latAcc) put(m map[string]float64) {
	if a.n > 0 {
		m["avg_latency_cycles"] = a.sum / a.n
		m["p99_latency_cycles"] = quantile(a.p99s, 0.5)
	}
}

// checkDelivered is the check that an unsaturated fault-free synthetic
// point delivered every packet created in its measure window.
func checkDelivered(saturated bool, deliveredFrac float64) string {
	if !saturated && deliveredFrac != 1 {
		return fmt.Sprintf("unsaturated fault-free point delivered %v of its measured packets, want 1", deliveredFrac)
	}
	return ""
}

// checkNoAbort is the check that a fault-free run never trips a
// watchdog.
func checkNoAbort(aborted bool, report string) string {
	if aborted {
		return "fault-free run aborted: " + report
	}
	return ""
}

const meshW = 8

// ---- synth-sat ----------------------------------------------------

var (
	synthSchemes  = []sim.Scheme{sim.FastPass, sim.EscapeVC}
	synthPatterns = []traffic.Pattern{traffic.Uniform, traffic.Transpose}
	synthRates    = []float64{0.02, 0.06, 0.08, 0.14}
)

const (
	synthWarmup, synthMeasure, synthDrain = 500, 1500, 1000
	// The Fig. 8 bisection bracket and depth.
	bisectLo, bisectHi, bisectIters = 0.01, 0.6, 6
)

func synthConfig(s sim.Scheme, p traffic.Pattern, rate float64, seed int64) sim.SynthConfig {
	return sim.SynthConfig{
		Options: sim.Options{Scheme: s, W: meshW, H: meshW, Seed: seed},
		Pattern: p, Rate: rate,
		Warmup: synthWarmup, Measure: synthMeasure, Drain: synthDrain,
	}
}

func synthSat(seed int64, tr *tracer) batchResult {
	b := batchResult{sim: map[string]float64{}}
	var lat latAcc
	var cycles, promoted, drops int64
	var fastSum, fastN float64
	for _, s := range synthSchemes {
		for _, p := range synthPatterns {
			for _, r := range synthRates {
				cfg := synthConfig(s, p, r, seed)
				name := fmt.Sprintf("%v/%v/%.2f", s, p, r)
				tr.synth(&cfg)
				countCycles(&cfg, &cycles)
				var res sim.SynthResult
				sp := tr.begin("sim.RunSynthetic")
				msg := safely(func() { res = sim.RunSynthetic(cfg) })
				tr.end(sp)
				run := runResult{name: name, sim: fmt.Sprintf("%+v", res), failed: msg, checkFailed: msg != ""}
				if msg == "" {
					if m := checkDelivered(res.Saturated, res.DeliveredFrac) + checkNoAbort(res.Aborted, res.AbortReport); m != "" {
						run.failed, run.checkFailed = m, true
					}
				}
				b.runs = append(b.runs, run)
				if msg != "" || res.Saturated {
					continue
				}
				lat.add(res.AvgLatency, res.P99Latency, res.Samples)
				if s == sim.FastPass {
					promoted += res.Promoted
					drops += res.Drops
					fastSum += res.FastFrac * float64(res.Samples)
					fastN += float64(res.Samples)
				}
			}
		}
	}
	lat.put(b.sim)
	b.sim["fastpass.promoted"] = float64(promoted)
	b.sim["fastpass.drops"] = float64(drops)
	if fastN > 0 {
		b.sim["fastpass.fast_frac"] = fastSum / fastN
	}
	var probes int
	sweepCycles := cycles
	for _, s := range synthSchemes {
		cfg := synthConfig(s, traffic.Transpose, 0, seed)
		tr.synth(&cfg)
		countCycles(&cfg, &cycles)
		var rates []float64
		traced := cfg.Instrument
		cfg.Instrument = func(c *sim.SynthConfig) {
			rates = append(rates, c.Rate)
			tr.probe()
			if traced != nil {
				traced(c)
			}
		}
		var rate, thr float64
		sp := tr.begin("sim.SaturationThroughput")
		msg := safely(func() { rate, thr = sim.SaturationThroughputJobs(cfg, bisectLo, bisectHi, bisectIters, 1) })
		tr.endProbe()
		tr.end(sp)
		probes += len(rates)
		b.runs = append(b.runs, runResult{
			name:   fmt.Sprintf("%v/Transpose/bisect", s),
			sim:    fmt.Sprintf("rate=%v thr=%v probes=%v", rate, thr, rates),
			failed: msg, checkFailed: msg != "",
		})
		if s == sim.FastPass {
			b.sim["sat_throughput"] = thr
		} else {
			b.sim["escapevc.sat_throughput"] = thr
		}
	}
	b.sim["sim.bisect_probes"] = float64(probes)
	b.sim["sim.bisect_cycles"] = float64(cycles - sweepCycles)
	b.sim["exec_cycles"] = float64(cycles)
	b.nodeCycles = meshW * meshW * cycles
	return b
}

// countCycles makes a synthetic config count every cycle it simulates
// into n, through the progress hook: a run that stops early (a watchdog
// abort, an early-stopped probe) counts only the cycles it ran. It
// chains any progress callback already set.
func countCycles(cfg *sim.SynthConfig, n *int64) {
	prev := cfg.OnProgress
	cfg.ProgressEvery = 1
	cfg.OnProgress = func(p sim.Progress) {
		*n++
		if prev != nil {
			prev(p)
		}
	}
}

// synthSetup builds every simulator synth-sat builds: one per sweep
// point and one per bisection probe (two brackets plus the iterations).
func synthSetup(seed int64) {
	for _, s := range synthSchemes {
		n := len(synthPatterns)*len(synthRates) + 2 + bisectIters
		for i := 0; i < n; i++ {
			sim.Build(synthConfig(s, traffic.Uniform, 0, seed).Options)
		}
	}
}

// ---- app-coherence ------------------------------------------------

// The Fig. 10 configurations at Fig. 10's seed. The seed is pinned, not
// taken from -seed: at seed 11 the Canneal / FastPass(VC=2) cell never
// completes (README.md, known defect), and the benchmark keeps that
// failure visible instead of reseeding it away.
var (
	appNames   = []string{"Canneal", "Streamcluster", "Volrend"}
	appSchemes = []sim.Scheme{sim.FastPass, sim.EscapeVC}
)

const (
	appSeed      = 11
	appQuota     = 20000
	appMaxCycles = 60000
)

func appConfig(name string, s sim.Scheme) sim.AppConfig {
	app := appwl.MustGet(name)
	app.WorkQuota = appQuota
	return sim.AppConfig{
		Options: sim.Options{
			Scheme: s, W: meshW, H: meshW, VCs: 2, Seed: appSeed,
			DrainPeriod: 512, // as Fig. 10 sets it
		},
		App:       app,
		MaxCycles: appMaxCycles,
	}
}

func appCoherence(_ int64, tr *tracer) batchResult {
	b := batchResult{sim: map[string]float64{}}
	var lat latAcc
	var exec, issued, completed, stalled int64
	for _, name := range appNames {
		for _, s := range appSchemes {
			cfg := appConfig(name, s)
			var res sim.AppResult
			sp := tr.begin("sim.RunApp")
			msg := safely(func() {
				if tr != nil {
					res = runAppTraced(cfg, tr)
				} else {
					res = sim.RunApp(cfg)
				}
			})
			tr.end(sp)
			run := runResult{
				name:   fmt.Sprintf("%s/%v(VC=2)/seed%d", name, s, appSeed),
				sim:    fmt.Sprintf("%+v", res),
				failed: msg, checkFailed: msg != "",
			}
			switch {
			case msg != "":
			case res.Aborted:
				run.failed, run.checkFailed = checkNoAbort(true, res.AbortReport), true
			case res.Timeout:
				run.failed = fmt.Sprintf("timed out: %d of %d transactions by cycle %d", res.Completed, appQuota, appMaxCycles)
			}
			b.runs = append(b.runs, run)
			// A run that stops early (crash) counts as its bound, like a
			// timeout.
			cycles := res.ExecTime
			if msg != "" {
				cycles = appMaxCycles
			}
			exec += cycles
			b.nodeCycles += meshW * meshW * res.ExecTime
			if run.failed == "" {
				lat.add(res.AvgLatency, res.P99Latency, res.Samples)
			}
			issued += res.Issued
			completed += res.Completed
			stalled += res.Stalled
		}
	}
	lat.put(b.sim)
	b.sim["exec_cycles"] = float64(exec)
	b.sim["protocol.issued"] = float64(issued)
	b.sim["protocol.completed"] = float64(completed)
	b.sim["protocol.stalled"] = float64(stalled)
	if issued > 0 {
		b.sim["protocol.stall_ratio"] = float64(stalled) / float64(issued)
	}
	return b
}

func appSetup(int64) {
	for _, name := range appNames {
		for _, s := range appSchemes {
			cfg := appConfig(name, s)
			inst := sim.Build(cfg.Options)
			protocol.New(inst.Net, cfg.App.Profile, cfg.Seed+0xa99)
		}
	}
}

// ---- campaign-faults ----------------------------------------------

const (
	// campaignPlan fails about 1.5 random links permanently per run and
	// loses a credit about as often. Each cell draws its own faults, so
	// a batch averages over many fault sets; campaignSeeds is set so
	// that the batch's cost barely moves with the workload seed.
	campaignPlan   = "linkfail:rate=5e-4,perm;creditloss:rate=1e-5"
	campaignSeeds  = 8
	campaignJobs   = 2
	campaignWindow = 500 // telemetry window of untraced passes; divides warm-up and measure
)

func campaignConfig(seed int64, jobs int) campaign.Config {
	seeds := make([]int64, campaignSeeds)
	for i := range seeds {
		seeds[i] = seed*campaignSeeds + int64(i)
	}
	base := synthConfig(sim.FastPass, traffic.Uniform, 0.05, 0)
	base.Faults = campaignPlan
	base.Watchdog = "on"
	return campaign.Config{
		Base: base,
		Variants: []campaign.Variant{
			{Scheme: sim.FastPass},
			{Scheme: sim.FastPass, Healing: true},
			{Scheme: sim.EscapeVC},
		},
		Scales: []float64{0, 1},
		Seeds:  seeds,
		Jobs:   jobs,
	}
}

func cellKey(c *sim.SynthConfig) string {
	return campaign.Point{
		Variant: campaign.Variant{Scheme: c.Scheme, Healing: c.FPHealing},
		Scale:   c.FaultScale,
		Seed:    c.Seed,
	}.Key()
}

func campaignFaults(seed int64, tr *tracer) batchResult {
	jobs := campaignJobs
	if tr != nil {
		jobs = 1 // the traced pass is serial
	}
	c := campaignConfig(seed, jobs)
	var (
		mu    sync.Mutex
		sinks = map[string]*telSink{}
		start = map[string]time.Time{}
		cells []interval
	)
	tr.synth(&c.Base)
	traced := c.Base.Instrument
	c.Base.Instrument = func(cfg *sim.SynthConfig) {
		if traced != nil {
			traced(cfg) // attaches the tracer's telemetry sink
		}
		tr.beginCell()
		key := cellKey(cfg)
		mu.Lock()
		defer mu.Unlock()
		start[key] = time.Now()
		if tr != nil {
			sinks[key] = tr.sinks[len(tr.sinks)-1]
			return
		}
		s := &telSink{}
		cfg.Telemetry.Window = campaignWindow
		cfg.Telemetry.JSONL = &s.jsonl
		sinks[key] = s
	}
	sp := tr.begin("campaign.Run")
	var recs []campaign.Record
	var err error
	msg := safely(func() {
		recs, err = campaign.Run(c, nil, func(r campaign.Record) {
			now := time.Now()
			mu.Lock()
			cells = append(cells, interval{start[r.Key()], now})
			mu.Unlock()
			tr.endCell()
		})
	})
	tr.end(sp)
	if msg == "" && err != nil {
		msg = err.Error()
	}
	b := batchResult{sim: map[string]float64{}, cells: cells, jobs: jobs}
	if msg != "" {
		for _, p := range campaign.Grid(c) {
			b.runs = append(b.runs, runResult{name: p.Key(), failed: msg, checkFailed: true})
		}
		return b
	}
	var delivered []float64
	var lat latAcc
	var cycles, trips, heals, linkFails, creditLoss int64
	for _, r := range recs {
		s := sinks[r.Key()]
		sum := s.summary(synthWarmup, synthWarmup+synthMeasure)
		run := runResult{name: r.Key(), sim: fmt.Sprintf("%+v lat=%v/%v", r, sum.latMean, sum.latP99)}
		if r.Scale == 0 {
			if m := checkNoAbort(r.Aborted, "watchdog tripped"); m != "" {
				run.failed, run.checkFailed = m, true
			}
			lat.add(sum.latMean, sum.latP99, int(sum.latSamples))
		} else {
			delivered = append(delivered, r.DeliveredFrac)
		}
		b.runs = append(b.runs, run)
		cycles += sum.lastCycle
		if r.Aborted {
			trips++
		}
		heals += r.Heals
		linkFails += sum.counters["link_fails"]
		creditLoss += sum.counters["credits_lost"]
	}
	lat.put(b.sim)
	b.nodeCycles = meshW * meshW * cycles
	b.sim["exec_cycles"] = float64(cycles)
	b.sim["delivered_frac_p50"] = quantile(delivered, 0.5)
	b.sim["invariant.trips"] = float64(trips)
	b.sim["fastpass.heals"] = float64(heals)
	b.sim["faults.link_failures"] = float64(linkFails)
	b.sim["faults.credit_losses"] = float64(creditLoss)
	return b
}

func campaignSetup(seed int64) {
	c := campaignConfig(seed, 1)
	for _, p := range campaign.Grid(c) {
		o := c.Base.Options
		o.Scheme, o.FPHealing, o.Seed, o.VCs = p.Variant.Scheme, p.Variant.Healing, p.Seed, 0
		if p.Scale == 0 {
			o.Faults = ""
		} else {
			o.FaultScale = p.Scale
		}
		sim.Build(o)
	}
}

// ---- irregular ----------------------------------------------------

// irrGraphs graphs, graph g offered irrRates[g%2]: the more graphs a
// batch averages over, the less the seed's wiring moves its cost.
const (
	irrNodes  = 36
	irrGraphs = 12
)

var irrRates = []float64{0.01, 0.03}

// irregularGraph is a seeded random ring-plus-chords graph: the ring,
// and a random perfect matching of chords between non-neighbours, so
// every node has degree 3 (1.5 edges per node). The fixed degree fixes
// the router port count, which irrnet's per-cycle work and allocation
// scale with; only the wiring varies with the seed.
func irregularGraph(seed int64, g int) [][2]int {
	rng := rand.New(rand.NewSource(seed*1000 + int64(g)))
	for {
		perm := rng.Perm(irrNodes)
		edges := make([][2]int, 0, irrNodes+irrNodes/2)
		for i := 0; i < irrNodes; i++ {
			edges = append(edges, [2]int{i, (i + 1) % irrNodes})
		}
		ok := true
		for i := 0; i < irrNodes && ok; i += 2 {
			a, b := perm[i], perm[i+1]
			d := (a - b + irrNodes) % irrNodes
			ok = d != 1 && d != irrNodes-1
			edges = append(edges, [2]int{a, b})
		}
		if ok {
			return edges
		}
	}
}

const (
	irrWarmup, irrMeasure, irrDrain = 1000, 3000, 2000
	irrCycles                       = irrWarmup + irrMeasure + irrDrain
)

func irregularConfig(seed int64, g int) noc.IrregularConfig {
	return noc.IrregularConfig{
		Nodes: irrNodes, Edges: irregularGraph(seed, g), Rate: irrRates[g%len(irrRates)], Seed: seed + int64(g),
		Warmup: irrWarmup, Measure: irrMeasure, Drain: irrDrain,
	}
}

func irregular(seed int64, tr *tracer) batchResult {
	b := batchResult{sim: map[string]float64{}}
	var lat latAcc
	var promoted int64
	for g := 0; g < irrGraphs; g++ {
		if tr != nil {
			sp := tr.begin("topology.derive")
			t, err := topology.NewIrregular(irrNodes, irregularGraph(seed, g))
			if err == nil {
				t.HolisticWalk()
			}
			tr.end(sp)
		}
		cfg := irregularConfig(seed, g)
		var res noc.IrregularResult
		var err error
		sp := tr.begin("noc.RunIrregular")
		msg := safely(func() { res, err = noc.RunIrregular(cfg) })
		tr.end(sp)
		if msg == "" && err != nil {
			msg = err.Error()
		}
		run := runResult{
			name: fmt.Sprintf("graph%d/%.2f", g, cfg.Rate), sim: fmt.Sprintf("%+v", res),
			failed: msg, checkFailed: msg != "",
		}
		if msg == "" {
			if m := checkDelivered(res.Saturated, res.DeliveredFrac); m != "" {
				run.failed, run.checkFailed = m, true
			}
		}
		b.runs = append(b.runs, run)
		b.nodeCycles += irrNodes * irrCycles
		if run.failed == "" && !res.Saturated {
			lat.add(res.AvgLatency, res.P99Latency, 1)
			promoted += res.Promoted
		}
	}
	lat.put(b.sim)
	b.sim["exec_cycles"] = float64(b.nodeCycles / irrNodes)
	b.sim["irrnet.promoted"] = float64(promoted)
	return b
}

// irregularSetup constructs what RunIrregular constructs before its
// first cycle: the topology (with its holistic walk) and the network.
func irregularSetup(seed int64) {
	for g := 0; g < irrGraphs; g++ {
		cfg := irregularConfig(seed, g)
		t, err := topology.NewIrregular(cfg.Nodes, cfg.Edges)
		if err != nil {
			continue // the batch reports the error as a failed run
		}
		irrnet.New(t, irrnet.Params{Seed: cfg.Seed})
	}
}
