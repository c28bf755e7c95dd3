// Package stats collects the measurements behind the paper's figures:
// average packet latency, 99th-percentile tail latency (Fig. 12),
// throughput in packets/node/cycle (Figs. 7 and 8), the regular vs
// bufferless latency split of FastPass packets (Fig. 9), and the
// regular / FastPass / dropped packet-type breakdown (Fig. 13).
package stats

import (
	"math"
	"slices"

	"repro/internal/message"
)

// Collector accumulates per-packet results. Packets *created* inside the
// measurement window [MeasStart, MeasEnd) contribute latency samples;
// packets *ejected* inside the window contribute to throughput. The
// usual warmup → measure → drain methodology wires both.
type Collector struct {
	Nodes              int
	MeasStart, MeasEnd int64

	latencies []int64
	// sorted caches an ascending copy of latencies for Percentile, so
	// repeated quantile reads cost one sort instead of one per call;
	// OnEject invalidates it (sortedStale) instead of re-sorting.
	sorted      []int64
	sortedStale bool
	// fastSplit records (regular, fast) cycle splits for measured
	// FastPass packets; regOnly holds latencies of never-promoted
	// packets (Fig. 9's "regular packets" series).
	fastTime, regTime []int64
	regOnly           []int64

	created        int64
	ejectedWindow  int64
	flitsWindow    int64
	regularPkts    int64
	fastPkts       int64
	droppedPkts    int64
	perClassEjects [message.NumClasses]int64

	// Run-lifetime accumulators, counted on every ejection regardless of
	// the measurement window. These back the windowed telemetry readout
	// (WindowCounters), which needs monotone cumulative values it can
	// delta per window — the [MeasStart, MeasEnd) gate above would leave
	// warmup and drain windows empty.
	allEjects     int64
	allFlits      int64
	allLatSum     int64
	allLatSamples int64
}

// New creates a collector for a network of the given size measuring the
// window [measStart, measEnd).
func New(nodes int, measStart, measEnd int64) *Collector {
	return &Collector{Nodes: nodes, MeasStart: measStart, MeasEnd: measEnd}
}

// inWindow reports whether a cycle falls in the measurement window.
func (c *Collector) inWindow(cycle int64) bool {
	return cycle >= c.MeasStart && cycle < c.MeasEnd
}

// OnCreate observes packet creation (tagging).
func (c *Collector) OnCreate(pkt *message.Packet) {
	if c.inWindow(pkt.CreateTime) {
		c.created++
	}
}

// OnEject observes a packet leaving the network.
func (c *Collector) OnEject(pkt *message.Packet) {
	c.allEjects++
	c.allFlits += int64(pkt.Len)
	c.allLatSum += pkt.Latency()
	c.allLatSamples++
	if c.inWindow(pkt.EjectTime) {
		c.ejectedWindow++
		c.flitsWindow += int64(pkt.Len)
		c.perClassEjects[pkt.Class]++
	}
	if !c.inWindow(pkt.CreateTime) {
		return
	}
	lat := pkt.Latency()
	c.latencies = append(c.latencies, lat)
	c.sortedStale = true
	switch {
	case pkt.Dropped > 0:
		c.droppedPkts++
	case pkt.Kind == message.FastPass:
		c.fastPkts++
	default:
		c.regularPkts++
	}
	if pkt.Kind == message.FastPass {
		c.fastTime = append(c.fastTime, pkt.FastCycles)
		c.regTime = append(c.regTime, lat-pkt.FastCycles)
	} else {
		c.regOnly = append(c.regOnly, lat)
	}
}

// RegularMean is the mean latency of measured packets that were never
// promoted to FastPass.
func (c *Collector) RegularMean() float64 { return mean(c.regOnly) }

// Samples reports the number of measured latency samples.
func (c *Collector) Samples() int { return len(c.latencies) }

// MeasuredCreated reports packets created inside the window.
func (c *Collector) MeasuredCreated() int64 { return c.created }

// MeanLatency is the average packet latency over measured packets, or
// NaN with no samples.
func (c *Collector) MeanLatency() float64 { return mean(c.latencies) }

// Percentile returns the p-quantile of measured latencies by
// NearestRank (NaN with no samples or a p outside (0, 1]). Fig. 12
// uses p = 0.99. The sorted view is cached across calls and rebuilt
// only after new ejections, so interleaving Percentile reads with
// OnEject stays correct and repeated reads stay cheap.
func (c *Collector) Percentile(p float64) float64 {
	if c.sortedStale || len(c.sorted) != len(c.latencies) {
		c.sorted = append(c.sorted[:0], c.latencies...)
		slices.Sort(c.sorted)
		c.sortedStale = false
	}
	return NearestRank(c.sorted, p)
}

// NearestRank returns the p-quantile of an ascending-sorted slice by
// nearest rank. It is NaN for an empty slice or a p outside (0, 1],
// NaN included: a bogus p must not clamp silently onto the min or max
// sample, an easy way to plot garbage without noticing.
func NearestRank[T int64 | float64](sorted []T, p float64) float64 {
	if len(sorted) == 0 || math.IsNaN(p) || p <= 0 || p > 1 {
		return math.NaN()
	}
	// With p in (0, 1], ceil(p*n)-1 is always a valid index.
	return float64(sorted[int(math.Ceil(p*float64(len(sorted))))-1])
}

// Throughput is the accepted traffic in packets/node/cycle during the
// window.
func (c *Collector) Throughput() float64 {
	w := c.MeasEnd - c.MeasStart
	if w <= 0 || c.Nodes == 0 {
		return 0
	}
	return float64(c.ejectedWindow) / float64(c.Nodes) / float64(w)
}

// FlitThroughput is the accepted traffic in flits/node/cycle.
func (c *Collector) FlitThroughput() float64 {
	w := c.MeasEnd - c.MeasStart
	if w <= 0 || c.Nodes == 0 {
		return 0
	}
	return float64(c.flitsWindow) / float64(c.Nodes) / float64(w)
}

// Breakdown reports the regular / FastPass / dropped fractions of
// measured packets (Fig. 13). Fractions sum to 1 when any packets were
// measured.
func (c *Collector) Breakdown() (regular, fast, dropped float64) {
	total := float64(c.regularPkts + c.fastPkts + c.droppedPkts)
	if total == 0 {
		return 0, 0, 0
	}
	return float64(c.regularPkts) / total, float64(c.fastPkts) / total, float64(c.droppedPkts) / total
}

// FastSplit reports the mean regular (buffered) and FastPass
// (bufferless) latency components of measured FastPass packets (Fig. 9).
func (c *Collector) FastSplit() (regular, fast float64) {
	return mean(c.regTime), mean(c.fastTime)
}

// ClassEjects reports packets of a class ejected in the window.
func (c *Collector) ClassEjects(cl message.Class) int64 { return c.perClassEjects[cl] }

// Cumulative is the run-lifetime readout behind windowed telemetry:
// monotone counters over every ejection, independent of the measurement
// window, so a telemetry layer can delta them per window without
// duplicating the collector's accounting.
type Cumulative struct {
	Ejects, Flits      int64
	LatSum, LatSamples int64
}

// WindowCounters reports the run-lifetime cumulative counters.
func (c *Collector) WindowCounters() Cumulative {
	return Cumulative{
		Ejects:     c.allEjects,
		Flits:      c.allFlits,
		LatSum:     c.allLatSum,
		LatSamples: c.allLatSamples,
	}
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
