package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// smallSynth is a short fault-free 4×4 point well below saturation.
func smallSynth() sim.SynthResult {
	return sim.RunSynthetic(sim.SynthConfig{
		Options: sim.Options{Scheme: sim.FastPass, W: 4, H: 4, Seed: 3},
		Pattern: traffic.Uniform, Rate: 0.05,
		Warmup: 200, Measure: 600, Drain: 400,
	})
}

func TestCheckDeliveredRejectsAPerturbedResult(t *testing.T) {
	res := smallSynth()
	if res.Saturated || res.DeliveredFrac != 1 {
		t.Fatalf("baseline point: saturated=%v delivered=%v, want an unsaturated point delivering everything", res.Saturated, res.DeliveredFrac)
	}
	if msg := checkDelivered(res.Saturated, res.DeliveredFrac); msg != "" {
		t.Fatalf("check rejected a correct result: %s", msg)
	}
	lost := res
	lost.DeliveredFrac = math.Nextafter(1, 0) // one packet short, in effect
	if checkDelivered(lost.Saturated, lost.DeliveredFrac) == "" {
		t.Error("check accepted an unsaturated point that lost packets")
	}
	// A saturated point may legitimately leave packets behind.
	lost.Saturated = true
	if msg := checkDelivered(lost.Saturated, lost.DeliveredFrac); msg != "" {
		t.Errorf("check rejected a saturated point: %s", msg)
	}
}

func TestCheckNoAbortRejectsAPerturbedResult(t *testing.T) {
	res := smallSynth()
	if msg := checkNoAbort(res.Aborted, res.AbortReport); msg != "" {
		t.Fatalf("check rejected a clean run: %s", msg)
	}
	res.Aborted, res.AbortReport = true, "deadlock watchdog: no progress"
	if checkNoAbort(res.Aborted, res.AbortReport) == "" {
		t.Error("check accepted an aborted fault-free run")
	}
}

// batchOf renders results the way the workloads do.
func batchOf(results ...sim.SynthResult) batchResult {
	var b batchResult
	for i, r := range results {
		b.runs = append(b.runs, runResult{name: fmt.Sprint("run", i), sim: fmt.Sprintf("%+v", r)})
	}
	return b
}

func TestLedgerRejectsResultsThatDifferBetweenPasses(t *testing.T) {
	res := smallSynth()
	var rep report
	l := ledger{rep: &rep}
	l.add(batchOf(res, res), "untraced")
	l.add(batchOf(res, res), "traced")
	if len(rep.problems) != 0 {
		t.Fatalf("identical passes reported: %v", rep.problems)
	}
	perturbed := res
	perturbed.AvgLatency = math.Nextafter(res.AvgLatency, math.Inf(1)) // one ulp
	l.add(batchOf(res, perturbed), "traced")
	if len(rep.problems) != 1 || !strings.Contains(rep.problems[0], "run1") {
		t.Errorf("a one-ulp latency change was not reported against run1: %v", rep.problems)
	}
	if rep.attempted != 6 || rep.failed != 0 {
		t.Errorf("attempted/failed = %d/%d, want 6/0", rep.attempted, rep.failed)
	}
}

func TestLedgerCountsFailedRuns(t *testing.T) {
	var rep report
	l := ledger{rep: &rep}
	b := batchOf(smallSynth(), smallSynth())
	b.runs[1].failed = "timed out"
	l.add(b, "repeated")
	l.add(b, "repeated")
	if rep.attempted != 4 || rep.failed != 2 {
		t.Errorf("attempted/failed = %d/%d, want 4/2", rep.attempted, rep.failed)
	}
	if len(rep.problems) != 0 {
		t.Errorf("a timeout is a failed run, not a failed check: %v", rep.problems)
	}
	if len(rep.notes) != 1 {
		t.Errorf("want the failure noted once, got %v", rep.notes)
	}
}

// The traced app run drives sim.RunApp's pieces itself; it must agree
// with RunApp bit for bit.
func TestRunAppTracedMatchesRunApp(t *testing.T) {
	for _, s := range appSchemes {
		cfg := appConfig("Canneal", s)
		cfg.W, cfg.H = 4, 4
		cfg.App.WorkQuota = 400
		cfg.MaxCycles = 20000
		want := fmt.Sprintf("%+v", sim.RunApp(cfg))
		tr := newTracer()
		got := fmt.Sprintf("%+v", runAppTraced(cfg, tr))
		if got != want {
			t.Errorf("%v: traced run differs:\n got  %s\n want %s", s, got, want)
		}
		if len(tr.durations("network.step")) == 0 || len(tr.sinks) != 1 {
			t.Errorf("%v: traced run recorded no cycle spans or telemetry", s)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h [24]int64
	h[5] = 100 // 100 samples in [16, 32)
	if got := histQuantile(h[:], 0.5); got != 24 {
		t.Errorf("median = %v, want 24 (the bucket's midpoint)", got)
	}
	h[0] = 100 // and 100 zeros
	if got := histQuantile(h[:], 0.25); got != 0 {
		t.Errorf("q25 = %v, want 0", got)
	}
	if got := histQuantile(make([]int64, 24), 0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram gave %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "run", parent: -1, start: 0, end: 100},
		{name: "cycle", parent: 0, start: 10, end: 40},
		{name: "cycle", parent: 0, start: 40, end: 70},
	}}
	got := tr.selfTimes()
	if got[0] != 40 || got[1] != 30 || got[2] != 30 {
		t.Errorf("self times = %v, want [40 30 30]", got)
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += uint64(i) * x
		}
	}
	return x
}

func TestLeafSharesReadsARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := leafShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1 (%v)", total, shares)
	}
	// The spin loop lives in this package, repro/nocbench.
	if shares["nocbench"] < 0.5 {
		t.Errorf("spin loop share %v, want most of the profile (%v)", shares["nocbench"], shares)
	}
	if _, err := leafShares([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/router.(*Router).allocateVCs": "router",
		"repro/internal/baselines/escapevc.New":       "escapevc",
		"repro/internal/parallel.Map[...].func1":      "parallel",
		"runtime.mallocgc":                            "gc",
		"runtime.scanobject":                          "gc",
		"runtime.futex":                               "other",
		"math/rand.(*Rand).Float64":                   "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestIrregularGraphIsARingPlusAPerfectMatching(t *testing.T) {
	for g := 0; g < 20; g++ {
		edges := irregularGraph(heldOutSeed, g)
		deg := make([]int, irrNodes)
		seen := map[[2]int]bool{}
		for _, e := range edges {
			a, b := min(e[0], e[1]), max(e[0], e[1])
			if a == b || seen[[2]int{a, b}] {
				t.Fatalf("graph %d: self-loop or duplicate edge %v", g, e)
			}
			seen[[2]int{a, b}] = true
			deg[a]++
			deg[b]++
		}
		for n, d := range deg {
			if d != 3 {
				t.Fatalf("graph %d: node %d has degree %d, want 3", g, n, d)
			}
		}
	}
	a, b := fmt.Sprint(irregularGraph(1, 0)), fmt.Sprint(irregularGraph(1, 0))
	if a != b {
		t.Error("the same seed gave different graphs")
	}
	if a == fmt.Sprint(irregularGraph(2, 0)) {
		t.Error("different seeds gave the same graph")
	}
}

// The traced campaign pass runs serially; its records must equal the
// parallel untraced pass's, which is the -j 2 against -j 1 check.
func TestCampaignSerialMatchesParallel(t *testing.T) {
	var rep report
	l := ledger{rep: &rep}
	par := campaignFaults(defaultSeed, nil)
	if par.jobs != campaignJobs || len(par.cells) != len(par.runs) {
		t.Fatalf("parallel pass: jobs=%d, %d cell intervals for %d runs", par.jobs, len(par.cells), len(par.runs))
	}
	l.add(par, "untraced")
	l.add(campaignFaults(defaultSeed, newTracer()), "traced")
	if len(rep.problems) != 0 {
		t.Fatalf("serial and parallel campaigns differ: %v", rep.problems)
	}
	if par.sim["delivered_frac_p50"] >= 1 || par.sim["faults.link_failures"] == 0 {
		t.Errorf("the fault plan injected nothing: %v", par.sim)
	}
}

func TestSampleRSSStopsAndReportsAPeak(t *testing.T) {
	stop := sampleRSS()
	buf := make([]byte, 32<<20)
	for i := range buf {
		buf[i] = byte(i) // touch every page
	}
	time.Sleep(3 * rssEvery)
	peak := stop()
	if peak < float64(len(buf)) {
		t.Errorf("peak RSS %.0f B while holding %d B", peak, len(buf))
	}
	_ = buf[len(buf)-1]
}
