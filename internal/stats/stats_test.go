package stats

import (
	"math"
	"strings"
	"testing"

	"repro/internal/message"
)

func eject(c *Collector, id uint64, create, eject int64, kind message.Kind, fast int64, dropped int) {
	p := message.NewPacket(id, 0, 1, message.Request, 1, create)
	p.EjectTime = eject
	p.Kind = kind
	p.FastCycles = fast
	p.Dropped = dropped
	c.OnCreate(p)
	c.OnEject(p)
}

func TestMeanAndPercentile(t *testing.T) {
	c := New(4, 0, 100)
	for i, lat := range []int64{10, 20, 30, 40} {
		eject(c, uint64(i), 10, 10+lat, message.Regular, 0, 0)
	}
	if got := c.MeanLatency(); got != 25 {
		t.Errorf("mean = %v, want 25", got)
	}
	if got := c.Percentile(0.5); got != 20 {
		t.Errorf("p50 = %v, want 20", got)
	}
	if got := c.Percentile(0.99); got != 40 {
		t.Errorf("p99 = %v, want 40", got)
	}
	if got := c.Percentile(1.0); got != 40 {
		t.Errorf("p100 = %v, want 40", got)
	}
	if c.Samples() != 4 {
		t.Errorf("samples = %d", c.Samples())
	}
}

// TestQuantiles: over latencies 1..100 the nearest-rank p-quantile is
// exactly 100p, from the collector and from NearestRank alike.
func TestQuantiles(t *testing.T) {
	c := New(1, 0, 1000)
	var floats []float64
	for i := int64(1); i <= 100; i++ {
		eject(c, uint64(i), 0, i, message.Regular, 0, 0)
		floats = append(floats, float64(i))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		want := 100 * q
		if got := c.Percentile(q); got != want {
			t.Errorf("p%v = %v, want %v", 100*q, got, want)
		}
		if got := NearestRank(floats, q); got != want {
			t.Errorf("NearestRank(float64, %v) = %v, want %v", q, got, want)
		}
	}
	if got := New(1, 0, 10).Percentile(0.5); !math.IsNaN(got) {
		t.Errorf("empty p50 = %v, want NaN", got)
	}
}

func TestEmptyCollectorNaN(t *testing.T) {
	c := New(4, 0, 100)
	if !math.IsNaN(c.MeanLatency()) || !math.IsNaN(c.Percentile(0.99)) {
		t.Error("empty collector should report NaN")
	}
	r, f, d := c.Breakdown()
	if r != 0 || f != 0 || d != 0 {
		t.Error("empty breakdown should be zeros")
	}
}

func TestWindowing(t *testing.T) {
	c := New(4, 100, 200)
	// Created before the window: no latency sample, but ejected inside:
	// counts for throughput.
	eject(c, 1, 50, 150, message.Regular, 0, 0)
	// Created inside, ejected after: latency sample, no throughput.
	eject(c, 2, 150, 250, message.Regular, 0, 0)
	// Fully outside.
	eject(c, 3, 250, 300, message.Regular, 0, 0)
	if c.Samples() != 1 {
		t.Fatalf("samples = %d, want 1", c.Samples())
	}
	if got := c.MeanLatency(); got != 100 {
		t.Errorf("mean = %v, want 100", got)
	}
	// Throughput: 1 packet over 100 cycles over 4 nodes.
	if got := c.Throughput(); math.Abs(got-1.0/400) > 1e-12 {
		t.Errorf("throughput = %v, want 0.0025", got)
	}
	if c.MeasuredCreated() != 1 {
		t.Errorf("created = %d", c.MeasuredCreated())
	}
}

func TestBreakdownAndFastSplit(t *testing.T) {
	c := New(1, 0, 1000)
	eject(c, 1, 0, 40, message.Regular, 0, 0)    // regular
	eject(c, 2, 0, 60, message.FastPass, 20, 0)  // fast: 40 reg + 20 fast
	eject(c, 3, 0, 100, message.FastPass, 30, 1) // dropped (takes precedence)
	r, f, d := c.Breakdown()
	if math.Abs(r-1.0/3) > 1e-12 || math.Abs(f-1.0/3) > 1e-12 || math.Abs(d-1.0/3) > 1e-12 {
		t.Errorf("breakdown = %v %v %v", r, f, d)
	}
	reg, fast := c.FastSplit()
	// Both FastPass packets contribute: reg components 40 and 70, fast
	// 20 and 30.
	if reg != 55 || fast != 25 {
		t.Errorf("FastSplit = %v, %v; want 55, 25", reg, fast)
	}
}

func TestFlitThroughputAndClassCounts(t *testing.T) {
	c := New(2, 0, 10)
	p := message.NewPacket(1, 0, 1, message.Response, 5, 1)
	p.EjectTime = 5
	c.OnCreate(p)
	c.OnEject(p)
	if got := c.FlitThroughput(); math.Abs(got-5.0/20) > 1e-12 {
		t.Errorf("flit throughput = %v", got)
	}
	if c.ClassEjects(message.Response) != 1 || c.ClassEjects(message.Request) != 0 {
		t.Error("per-class counts wrong")
	}
}

func TestLatencyHistogram(t *testing.T) {
	c := New(1, 0, 1000)
	for i, lat := range []int64{1, 2, 3, 8, 9, 100} {
		eject(c, uint64(i), 0, lat, message.Regular, 0, 0)
	}
	h := c.LatencyHistogram()
	if h.Count != 6 || h.Min != 1 || h.Max != 100 {
		t.Fatalf("histogram stats: %+v", h)
	}
	// 1 -> bucket 0; 2,3 -> bucket 1; 8,9 -> bucket 3; 100 -> bucket 6.
	if h.Buckets[0] != 1 || h.Buckets[1] != 2 || h.Buckets[3] != 2 || h.Buckets[6] != 1 {
		t.Fatalf("buckets: %v", h.Buckets)
	}
	s := h.String()
	if !strings.Contains(s, "6 samples") {
		t.Errorf("rendering: %q", s)
	}
	empty := New(1, 0, 10).LatencyHistogram()
	if !strings.Contains(empty.String(), "no samples") {
		t.Error("empty histogram rendering broken")
	}
}

// TestPercentileInterleavedWithEjects covers the lazy-sort cache:
// Percentile and MeanLatency reads interleaved with OnEject appends
// must match a freshly-built collector at every step, including reads
// repeated back-to-back (cache hit) and reads straight after an append
// (cache invalidated).
func TestPercentileInterleavedWithEjects(t *testing.T) {
	// Deliberately unsorted arrivals so a stale cache would show.
	lats := []int64{70, 10, 90, 30, 50, 20, 80, 40, 60, 5}
	c := New(4, 0, 1000)
	for i, lat := range lats {
		eject(c, uint64(i), 10, 10+lat, message.Regular, 0, 0)
		// Reference collector rebuilt from scratch over the same prefix.
		ref := New(4, 0, 1000)
		for j := 0; j <= i; j++ {
			eject(ref, uint64(j), 10, 10+lats[j], message.Regular, 0, 0)
		}
		for _, p := range []float64{0.5, 0.9, 0.99, 1.0} {
			got, want := c.Percentile(p), ref.Percentile(p)
			if got != want {
				t.Fatalf("after %d ejects: p%v = %v, want %v", i+1, 100*p, got, want)
			}
			// Immediate re-read exercises the cached path.
			if again := c.Percentile(p); again != got {
				t.Fatalf("after %d ejects: repeated p%v read changed: %v then %v", i+1, 100*p, got, again)
			}
		}
		if got, want := c.MeanLatency(), ref.MeanLatency(); got != want {
			t.Fatalf("after %d ejects: mean = %v, want %v", i+1, got, want)
		}
	}
}

// A quantile outside (0, 1] — zero, negative, above one, or NaN — used
// to clamp silently onto the min or max sample; it must be NaN.
func TestInvalidQuantilesAreNaN(t *testing.T) {
	c := New(4, 0, 100)
	for i, lat := range []int64{10, 20, 30, 40} {
		eject(c, uint64(i), 10, 10+lat, message.Regular, 0, 0)
	}
	for _, p := range []float64{0, -0.5, 1.01, 1.5, math.NaN()} {
		if got := c.Percentile(p); !math.IsNaN(got) {
			t.Errorf("Percentile(%v) = %v, want NaN", p, got)
		}
		if got := NearestRank([]float64{1, 2, 3}, p); !math.IsNaN(got) {
			t.Errorf("NearestRank(float64, %v) = %v, want NaN", p, got)
		}
	}
	// Invalid queries must not poison the sort cache for later valid ones.
	if got := c.Percentile(0.5); got != 20 {
		t.Errorf("p50 after invalid queries = %v, want 20", got)
	}
	if got := c.Percentile(0.99); got != 40 {
		t.Errorf("p99 after invalid queries = %v, want 40", got)
	}
}

func TestEmptyQuantilesAllNaN(t *testing.T) {
	c := New(4, 0, 100)
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := c.Percentile(q); !math.IsNaN(got) {
			t.Errorf("empty Percentile(%v) = %v, want NaN", q, got)
		}
		if got := NearestRank([]float64(nil), q); !math.IsNaN(got) {
			t.Errorf("empty NearestRank(%v) = %v, want NaN", q, got)
		}
	}
}
