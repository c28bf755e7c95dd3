package campaign

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Curve is one aggregated (variant, scale) point of a degradation
// curve: the distribution of the seed population's outcomes. Undefined
// statistics (a percentile over zero trips) are NaN, which the
// renderers spell literally.
type Curve struct {
	Variant string
	Scale   float64
	Runs    int

	// Delivered-fraction service levels over the seed population
	// (nearest-rank on the whole-run delivered fraction). P50 is the
	// median; P99/P999 are SLA tails — the fraction that 99% (99.9%)
	// of runs meet or exceed, i.e. the bad tail of the distribution.
	DeliveredP50  float64
	DeliveredP99  float64
	DeliveredP999 float64

	// Watchdog-trip distribution: how many runs aborted, the median
	// time to first trip, and the mean delivered fraction at trip time.
	Trips           int
	TripFrac        float64
	TripCycleP50    float64
	DeliveredAtTrip float64

	// Deadlock distribution: MTTF-to-deadlock is the median cycle at
	// which the deadlock watchdog fired.
	Deadlocks int
	MTTFP50   float64

	// Self-healing accounting, summed over the population.
	Heals     int64
	HealFails int64
}

// Aggregate folds per-cell records into one Curve per (variant, scale),
// in grid order. Records are matched by key, so a resumed journal in
// any order aggregates identically; missing cells are an error — a
// curve over a partial population would silently misstate the tail.
func Aggregate(c Config, recs []Record) ([]Curve, error) {
	byKey := make(map[string]Record, len(recs))
	for _, r := range recs {
		byKey[r.Key()] = r
	}
	var curves []Curve
	for _, v := range c.Variants {
		for _, sc := range c.Scales {
			cv := Curve{Variant: v.String(), Scale: sc}
			var delivered, tripCycles, mttf []float64
			var atTripSum float64
			for _, seed := range c.Seeds {
				p := Point{Variant: v, Scale: sc, Seed: seed}
				r, ok := byKey[p.Key()]
				if !ok {
					return nil, fmt.Errorf("campaign: no record for cell %s", p.Key())
				}
				cv.Runs++
				delivered = append(delivered, r.DeliveredFrac)
				if r.Aborted {
					cv.Trips++
					tripCycles = append(tripCycles, float64(r.TripCycle))
					atTripSum += r.TripDeliveredFrac
				}
				if r.Deadlock {
					cv.Deadlocks++
					mttf = append(mttf, float64(r.TripCycle))
				}
				cv.Heals += r.Heals
				cv.HealFails += r.HealFails
			}
			sort.Float64s(delivered)
			sort.Float64s(tripCycles)
			sort.Float64s(mttf)
			cv.DeliveredP50 = stats.NearestRank(delivered, 0.50)
			// SLA direction: the level all but the worst 1% (0.1%) meet.
			cv.DeliveredP99 = stats.NearestRank(delivered, 0.01)
			cv.DeliveredP999 = stats.NearestRank(delivered, 0.001)
			cv.TripFrac = float64(cv.Trips) / float64(cv.Runs)
			cv.TripCycleP50 = stats.NearestRank(tripCycles, 0.50)
			cv.MTTFP50 = stats.NearestRank(mttf, 0.50)
			if cv.Trips > 0 {
				cv.DeliveredAtTrip = atTripSum / float64(cv.Trips)
			} else {
				cv.DeliveredAtTrip = math.NaN()
			}
			curves = append(curves, cv)
		}
	}
	return curves, nil
}
