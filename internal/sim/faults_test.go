package sim

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/traffic"
)

// allFaultsBase is a small, fast configuration exercising every fault
// category at once.
func allFaultsBase() SynthConfig {
	return SynthConfig{
		Options: Options{
			W: 4, H: 4, Seed: 7,
			Faults:   "linkfail:rate=0.002,dur=64;portstall:rate=0.002,dur=32;corrupt:rate=0.001;creditloss:rate=0.001;stallconsumer:rate=0.0005,dur=128",
			Watchdog: "on",
		},
		Pattern: traffic.Uniform,
		Rate:    0.05,
		Warmup:  300, Measure: 800, Drain: 400,
	}
}

// faultGrid lays allFaultsBase out over schemes × fault scales,
// scheme-major, with the per-scheme VC default. Scale 0 is the
// fault-free control: the plan is dropped entirely.
func faultGrid(schemes []Scheme, scales []float64) []SynthConfig {
	var cfgs []SynthConfig
	for _, s := range schemes {
		for _, sc := range scales {
			c := allFaultsBase()
			c.Scheme, c.VCs, c.FaultScale = s, 0, sc
			if sc == 0 {
				c.Faults = ""
			}
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// TestResilienceSmoke runs the fault-intensity shape on two schemes
// and checks the accounting: every run carries traffic and accounts
// for every packet, the fault-free control injects nothing and
// finishes, and the full-intensity runs actually exercised the
// injector.
func TestResilienceSmoke(t *testing.T) {
	for _, c := range faultGrid([]Scheme{FastPass, EscapeVC}, []float64{0, 1}) {
		res := RunSynthetic(c)
		if res.Created == 0 || res.Created != res.Delivered+res.Stranded {
			t.Errorf("%v scale %g: created %d != delivered %d + stranded %d",
				c.Scheme, c.FaultScale, res.Created, res.Delivered, res.Stranded)
		}
		if c.FaultScale == 0 {
			if res.Faults != (faults.Counters{}) || res.CorruptedDelivered != 0 {
				t.Errorf("%v scale 0 injected faults: %+v", c.Scheme, res.Faults)
			}
			if res.Aborted {
				t.Errorf("%v fault-free control aborted:\n%s", c.Scheme, res.AbortReport)
			}
		} else if res.Faults.LinkFails == 0 && res.Faults.PortStalls == 0 && res.Faults.CreditsLost == 0 {
			t.Errorf("%v scale 1 shows no injector activity: %+v", c.Scheme, res.Faults)
		}
	}
}

// TestResilienceDeterministicAcrossJobs: faulted runs share no state,
// so the same grid run serially and on 8 concurrent workers must give
// bit-identical results.
func TestResilienceDeterministicAcrossJobs(t *testing.T) {
	cfgs := faultGrid([]Scheme{FastPass, EscapeVC, Pitstop}, []float64{0, 0.5, 1})
	serial := parallel.Map(1, cfgs, RunSynthetic)
	par := parallel.Map(8, cfgs, RunSynthetic)
	for i := range serial {
		// Field-rendered comparison: DeepEqual would flag NaN latencies
		// on saturated runs as unequal even when bit-identical.
		s, p := fmt.Sprintf("%+v", serial[i]), fmt.Sprintf("%+v", par[i])
		if s != p {
			t.Errorf("run %d differs between 1 and 8 workers:\n  j1 %s\n  j8 %s", i, s, p)
		}
	}
}

// TestFastPassNeverTripsUnderFaults drives FastPass through every
// fault category at full intensity with the watchdog at its most
// suspicious settings that still cannot false-positive on healthy
// slowness, and requires a clean finish: no abort, no deadlock.
func TestFastPassNeverTripsUnderFaults(t *testing.T) {
	base := allFaultsBase()
	base.Scheme = FastPass
	base.FaultScale = 1
	res := RunSynthetic(base)
	if res.Aborted {
		t.Fatalf("FastPass aborted under faults at cycle %d:\n%s", res.AbortCycle, res.AbortReport)
	}
	if res.DeadlockDetected {
		t.Fatal("FastPass reported a deadlock under faults")
	}
	if res.Delivered == 0 {
		t.Fatal("FastPass delivered nothing under faults")
	}
}

// TestCorruptionIsDetected cranks only the corruption rate and checks
// the checksum pipeline: corrupted deliveries are flagged, and every
// injector corruption that reached a destination was detected.
func TestCorruptionIsDetected(t *testing.T) {
	base := allFaultsBase()
	base.Scheme = EscapeVC
	base.Faults = "corrupt:rate=0.02"
	base.FaultScale = 1
	res := RunSynthetic(base)
	if res.Faults.FlitsCorrupted == 0 {
		t.Fatal("corruption rate 0.02 corrupted nothing")
	}
	if res.CorruptedDelivered == 0 {
		t.Fatal("no corrupted packet was flagged at delivery")
	}
	if res.Faults.CorruptionsDetected == 0 {
		t.Fatal("checksum check never fired")
	}
}
