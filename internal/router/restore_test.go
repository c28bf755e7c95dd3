package router_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/message"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/traffic"
)

// TestRestoreRebuildsHeadMasks checkpoints a loaded mesh mid-run,
// restores it into a fresh build, and requires every router's rebuilt
// head masks to equal both the masks recomputed from its VC contents and
// the original run's masks — then keeps both runs stepping (draining,
// no new traffic) and requires the same every cycle.
func TestRestoreRebuildsHeadMasks(t *testing.T) {
	for _, scheme := range []sim.Scheme{sim.FastPass, sim.EscapeVC, sim.Pitstop} {
		t.Run(scheme.String(), func(t *testing.T) {
			opts := sim.Options{Scheme: scheme, W: 4, H: 4, Seed: 3}
			orig := sim.Build(opts)
			orig.SetOnEject(func(*message.Packet) {})
			gen := &traffic.Generator{Pattern: traffic.Uniform, Rate: 0.25, W: 4, H: 4}
			rng := rand.New(rand.NewSource(5))
			for c := 0; c < 600; c++ {
				for _, pkt := range gen.Tick(orig.Cycle(), rng) {
					orig.Enqueue(pkt)
				}
				orig.Step()
			}
			w := snapshot.NewWriter()
			orig.Net.SnapshotState(w)
			restored := sim.Build(opts)
			restored.SetOnEject(func(*message.Packet) {})
			_, r, err := snapshot.Open(snapshot.Seal(nil, w))
			if err != nil {
				t.Fatal(err)
			}
			restored.Net.RestoreState(r)
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			busy := 0
			for c := 0; c < 200; c++ {
				for i, rt := range restored.Net.Routers {
					pend, ready := rt.HeadMasks()
					wantPend, wantReady := router.RecomputedMasks(rt)
					origPend, origReady := orig.Net.Routers[i].HeadMasks()
					if !slices.Equal(pend, wantPend) || !slices.Equal(ready, wantReady) ||
						!slices.Equal(pend, origPend) || !slices.Equal(ready, origReady) {
						t.Fatalf("cycle +%d router %d: restored pend=%x ready=%x, from VCs pend=%x ready=%x, original pend=%x ready=%x",
							c, i, pend, ready, wantPend, wantReady, origPend, origReady)
					}
					for p := range pend {
						if pend[p]|ready[p] != 0 {
							busy++
						}
					}
				}
				orig.Step()
				restored.Step()
			}
			if busy == 0 {
				t.Fatal("no router held a pending or ready head after the restore; the test checked nothing")
			}
		})
	}
}
