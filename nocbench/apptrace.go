package main

import (
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// runAppTraced is sim.RunApp composed from the same public pieces —
// sim.Build, protocol.New, Engine.Tick, Instance.Step — with a span
// around each, since RunApp has no hook of its own. It must reproduce
// RunApp's result bit for bit; the traced run checks that it does. cfg
// must carry explicit W, H and MaxCycles (RunApp's defaulting is not
// repeated here).
func runAppTraced(cfg sim.AppConfig, tr *tracer) sim.AppResult {
	sp := tr.begin("sim.Build")
	inst := sim.Build(cfg.Options)
	tr.end(sp)
	col := stats.New(cfg.W*cfg.H, 0, cfg.MaxCycles)
	inst.SetOnEject(col.OnEject)
	sp = tr.begin("protocol.New")
	eng := protocol.New(inst.Net, cfg.App.Profile, cfg.Seed+0xa99)
	tr.end(sp)
	tel := appTelemetry(inst, tr)
	quota := cfg.App.WorkQuota
	res := sim.AppResult{Scheme: cfg.Scheme, App: cfg.App.Name}
	for inst.Cycle() < cfg.MaxCycles {
		t0 := tr.now()
		eng.Tick(inst.Cycle())
		t1 := tr.now()
		inst.Step()
		t2 := tr.now()
		tr.add("protocol.tick", t0, t1)
		tr.add("network.step", t1, t2)
		tel.Tick(inst.Cycle())
		if eng.Completed >= quota {
			break
		}
		if inst.Watch != nil && inst.Watch.Tripped() {
			break
		}
	}
	tel.Finish(inst.Cycle())
	res.ExecTime = inst.Cycle()
	res.Timeout = eng.Completed < quota
	if inst.Watch != nil && inst.Watch.Tripped() {
		res.Aborted = true
		res.AbortCycle = inst.Cycle()
		res.AbortReport = inst.Watch.Report()
		res.DeadlockDetected = inst.Watch.Deadlocked()
	}
	res.AvgLatency = col.MeanLatency()
	res.P99Latency = col.Percentile(0.99)
	res.Samples = col.Samples()
	res.Completed = eng.Completed
	res.Issued = eng.Issued
	res.Stalled = eng.Stalled
	res.RegularFrac, res.FastFrac, res.DroppedFrac = col.Breakdown()
	return res
}

// appTelemetry registers, over a protocol run's network, the router,
// link and NIC slots the synthetic harness registers (same names), so
// every workload's per-layer counts come from one stream format.
func appTelemetry(inst *sim.Instance, tr *tracer) *telemetry.Metrics {
	s := &telSink{}
	tr.sinks = append(tr.sinks, s)
	n := inst.Net
	m := telemetry.New(telemetry.Options{Window: telWindow, JSONL: &s.jsonl, NodeCSV: &s.nodes},
		telemetry.Meta{Scheme: inst.Opts.Scheme.String(), Pattern: "app", Nodes: len(n.Routers)})
	m.Counter("link_flits", func() int64 { return n.FlitsOnLinks })
	m.Counter("flits_routed", func() int64 {
		var t int64
		for _, rt := range n.Routers {
			t += rt.FlitsRouted
		}
		return t
	})
	m.Counter("switch_stalls", func() int64 {
		var t int64
		for _, rt := range n.Routers {
			t += rt.SwitchStalls
		}
		return t
	})
	m.Gauge("source_backlog", func() int64 { return int64(n.SourceBacklog()) })
	if fp := inst.FP; fp != nil {
		m.Counter("fp_promoted", func() int64 { return fp.Counters.Promoted })
		m.Counter("fp_drops", func() int64 { return fp.Counters.Drops })
	}
	m.NodeGrid(len(n.Routers), func(i int) int64 { return n.Routers[i].FlitsRouted })
	m.Freeze()
	return m
}
