package campaign

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// resilienceConfig is the resilience experiment as a one-seed campaign:
// a small, fast base exercising every fault category at once, swept
// over three schemes and three intensities.
func resilienceConfig(jobs int) Config {
	return Config{
		Base: sim.SynthConfig{
			Options: sim.Options{
				W: 4, H: 4,
				Faults:   "linkfail:rate=0.002,dur=64;portstall:rate=0.002,dur=32;corrupt:rate=0.001;creditloss:rate=0.001;stallconsumer:rate=0.0005,dur=128",
				Watchdog: "on",
			},
			Pattern: traffic.Uniform,
			Rate:    0.05,
			Warmup:  300, Measure: 800, Drain: 400,
		},
		Variants: []Variant{{Scheme: sim.FastPass}, {Scheme: sim.EscapeVC}, {Scheme: sim.Pitstop}},
		Scales:   []float64{0, 0.5, 1},
		Seeds:    []int64{7},
		Jobs:     jobs,
	}
}

// faultFields is the Record's fault accounting as one comparable value.
type faultFields struct {
	corruptedDelivered, linkFails, portStalls, consumerStalls, flitsCorrupted, creditsLost int64
}

func recordFaults(r Record) faultFields {
	return faultFields{r.CorruptedDelivered, r.LinkFails, r.PortStalls, r.ConsumerStalls, r.FlitsCorrupted, r.CreditsLost}
}

func resultFaults(res sim.SynthResult) faultFields {
	f := res.Faults
	return faultFields{res.CorruptedDelivered, f.LinkFails, f.PortStalls, f.ConsumerStalls, f.FlitsCorrupted, f.CreditsLost}
}

// TestResilienceAccounting checks every cell of the resilience
// campaign: traffic actually flowed and is fully accounted for, the
// fault-free control saw no faults, the faulted cells saw the injector
// act, and the Record's fault fields are exactly the SynthResult's for
// the same configuration.
func TestResilienceAccounting(t *testing.T) {
	cfg := resilienceConfig(1)
	recs, err := Run(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid(cfg)
	if len(recs) != len(grid) {
		t.Fatalf("got %d records, want %d", len(recs), len(grid))
	}
	for i, r := range recs {
		p := grid[i]
		if r.Key() != p.Key() {
			t.Fatalf("record %d is %s, want grid cell %s", i, r.Key(), p.Key())
		}
		if r.Created == 0 || r.Created != r.Delivered+r.Stranded {
			t.Errorf("%s: created %d != delivered %d + stranded %d",
				r.Key(), r.Created, r.Delivered, r.Stranded)
		}
		if r.Scale == 0 {
			if recordFaults(r) != (faultFields{}) {
				t.Errorf("%s: fault-free control shows faults: %+v", r.Key(), recordFaults(r))
			}
			if r.Aborted {
				t.Errorf("%s: fault-free control aborted at cycle %d", r.Key(), r.TripCycle)
			}
		} else if r.LinkFails == 0 && r.PortStalls == 0 && r.CreditsLost == 0 {
			t.Errorf("%s: no injector activity: %+v", r.Key(), recordFaults(r))
		}

		// The same cell run directly: the per-scheme VC default, the
		// cell's seed, and the plan dropped entirely at scale 0.
		c := cfg.Base
		c.Scheme, c.VCs, c.Seed = p.Variant.Scheme, 0, p.Seed
		if p.Scale == 0 {
			c.Faults = ""
		} else {
			c.FaultScale = p.Scale
		}
		res := sim.RunSynthetic(c)
		if got, want := recordFaults(r), resultFaults(res); got != want {
			t.Errorf("%s: record faults %+v, SynthResult %+v", r.Key(), got, want)
		}
		if r.Created != res.Created || r.Delivered != res.Delivered || r.Aborted != res.Aborted {
			t.Errorf("%s: record %+v disagrees with direct run (created %d, delivered %d, aborted %v)",
				r.Key(), r, res.Created, res.Delivered, res.Aborted)
		}

		line, err := EncodeRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := DecodeRecord(line); err != nil || back != r {
			t.Errorf("%s: journal round trip gave %+v, %v", r.Key(), back, err)
		}
	}
}
