package fastpass

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
)

// The §III-F irregular derivation as the self-healing controller runs
// it: a mesh whose permanently failed channels leave an irregular
// graph, re-derived into a holistic walk with circulating lanes.

// healedController marks the given undirected channels permanently
// dead (both directions) on a w×h FastPass mesh and runs the lane
// re-derivation on what survives.
func healedController(t *testing.T, w, h int, dead [][2]int) *Controller {
	t.Helper()
	_, c := fpNetwork(w, h, 1, 1)
	links := c.mesh.Links()
	c.deadLink = make([]bool, len(links))
	for _, ch := range dead {
		hit := 0
		for _, l := range links {
			if (l.Src == ch[0] && l.Dst == ch[1]) || (l.Src == ch[1] && l.Dst == ch[0]) {
				c.deadLink[l.ID] = true
				hit++
			}
		}
		if hit != 2 {
			t.Fatalf("channel %v is not a mesh channel", ch)
		}
	}
	c.rederive(faults.NewInjector(faults.Plan{}, len(links), c.mesh.NumNodes(), c.mesh.NumPorts(), 1))
	return c
}

// irregularFixtures are 4×4 meshes with a few channels cut; each
// leaves the fabric connected.
var irregularFixtures = [][][2]int{
	nil,
	{{0, 1}},
	{{5, 6}, {9, 10}, {1, 5}},
	{{0, 4}, {3, 7}, {12, 13}, {10, 14}},
}

func healedFixtures(t *testing.T) []*Controller {
	t.Helper()
	var cs []*Controller
	for _, dead := range irregularFixtures {
		c := healedController(t, 4, 4, dead)
		if !c.Healed() {
			t.Fatalf("dead %v: no healed wiring (HealFails=%d)", dead, c.Counters.HealFails)
		}
		cs = append(cs, c)
	}
	return cs
}

// checkWalkPartitions: the healed walk is a closed, contiguous walk that
// uses every surviving directed link exactly once and no dead one, and
// the lane heads cut it into segments at least MaxPktLen+2 links long.
func checkWalkPartitions(t *testing.T, c *Controller) {
	t.Helper()
	links := c.mesh.Links()
	walk := c.hw.walk
	live := 0
	for _, d := range c.deadLink {
		if !d {
			live++
		}
	}
	if len(walk) != live {
		t.Fatalf("walk has %d links, %d survive", len(walk), live)
	}
	seen := make([]bool, len(links))
	for i, id := range walk {
		if c.deadLink[id] {
			t.Fatalf("walk step %d uses dead link %d", i, id)
		}
		if seen[id] {
			t.Fatalf("walk uses link %d twice", id)
		}
		seen[id] = true
		if next := walk[(i+1)%len(walk)]; links[id].Dst != links[next].Src {
			t.Fatalf("walk breaks after step %d", i)
		}
	}
	lanes := len(c.hw.lanePos)
	if lanes < 1 || lanes > c.sched.Partitions() {
		t.Fatalf("%d lanes for %d partitions", lanes, c.sched.Partitions())
	}
	for i := 1; i < lanes; i++ {
		if gap := c.hw.lanePos[i] - c.hw.lanePos[i-1]; gap < c.prm.MaxPktLen+2 {
			t.Fatalf("lanes %d and %d only %d links apart", i-1, i, gap)
		}
	}
	if lanes > 1 {
		if gap := c.hw.lanePos[0] + len(walk) - c.hw.lanePos[lanes-1]; gap < c.prm.MaxPktLen+2 {
			t.Fatalf("last lane only %d links behind the first", gap)
		}
	}
}

// checkLanesDisjoint: at every cycle of a full circuit, the links that
// full-length trains of distinct lanes claim are pairwise disjoint.
func checkLanesDisjoint(t *testing.T, c *Controller) {
	t.Helper()
	L := len(c.hw.walk)
	for cyc := 0; cyc < L; cyc++ {
		owner := map[int]int{}
		for lane, pos := range c.hw.lanePos {
			head := (pos + cyc) % L
			for k := 0; k < c.prm.MaxPktLen; k++ {
				id := c.hw.walk[((head-k)%L+L)%L]
				if o, clash := owner[id]; clash && o != lane {
					t.Fatalf("cycle %d: link %d claimed by lanes %d and %d", cyc, id, o, lane)
				}
				owner[id] = lane
			}
		}
	}
}

// checkCoverage: from every walk position a lane reaches every node
// within one circuit, and the step count lands on a link into it.
func checkCoverage(t *testing.T, c *Controller) {
	t.Helper()
	links := c.mesh.Links()
	L := len(c.hw.walk)
	for pos := 0; pos < L; pos++ {
		for node := 0; node < c.mesh.NumNodes(); node++ {
			s := c.healedSteps(pos, node)
			if s < 1 || s > L {
				t.Fatalf("node %d from position %d: %d steps", node, pos, s)
			}
			if dst := links[c.hw.walk[(pos+s-1)%L]].Dst; dst != node {
				t.Fatalf("node %d from position %d: step %d arrives at %d", node, pos, s, dst)
			}
		}
	}
}

func TestIrregularSegmentsPartitionLinks(t *testing.T) {
	for _, c := range healedFixtures(t) {
		checkWalkPartitions(t, c)
	}
}

// In any cycle, the lanes are pairwise link-disjoint (the §III-F
// generalisation of the Fig. 1 invariant).
func TestIrregularLanesDisjointPerSlot(t *testing.T) {
	for _, c := range healedFixtures(t) {
		checkLanesDisjoint(t, c)
	}
}

// Every lane reaches every node (Lemma 2's coverage on irregular
// fabrics).
func TestIrregularCoverageComplete(t *testing.T) {
	for _, c := range healedFixtures(t) {
		checkCoverage(t, c)
	}
}

// connected reports whether the mesh minus the dead links is connected.
func connected(c *Controller) bool {
	nn := c.mesh.NumNodes()
	adj := make([][]int, nn)
	for _, l := range c.mesh.Links() {
		if !c.deadLink[l.ID] {
			adj[l.Src] = append(adj[l.Src], l.Dst)
		}
	}
	seen := make([]bool, nn)
	stack := []int{0}
	seen[0] = true
	reached := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				reached++
				stack = append(stack, m)
			}
		}
	}
	return reached == nn
}

// Random cuts: every cut that leaves the mesh connected heals with all
// the invariants above; every cut that disconnects it fails the heal
// and keeps the static wiring.
func TestIrregularScheduleRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	healed, failed := 0, 0
	for trial := 0; trial < 40; trial++ {
		w, h := 3+rng.Intn(4), 3+rng.Intn(4)
		_, probe := fpNetwork(w, h, 1, 1)
		var channels [][2]int
		for _, l := range probe.mesh.Links() {
			if l.Src < l.Dst {
				channels = append(channels, [2]int{l.Src, l.Dst})
			}
		}
		rng.Shuffle(len(channels), func(i, j int) { channels[i], channels[j] = channels[j], channels[i] })
		c := healedController(t, w, h, channels[:rng.Intn(len(channels)/2+1)])
		if !connected(c) {
			failed++
			if c.Healed() || c.Counters.HealFails != 1 || c.Counters.Heals != 0 {
				t.Fatalf("trial %d: disconnecting cut gave healed=%v heals=%d fails=%d",
					trial, c.Healed(), c.Counters.Heals, c.Counters.HealFails)
			}
			continue
		}
		healed++
		if !c.Healed() || c.Counters.Heals != 1 {
			t.Fatalf("trial %d: connected cut did not heal (fails=%d)", trial, c.Counters.HealFails)
		}
		checkWalkPartitions(t, c)
		checkLanesDisjoint(t, c)
		checkCoverage(t, c)
	}
	if healed == 0 || failed == 0 {
		t.Fatalf("trials covered %d healed and %d disconnected cuts; want both", healed, failed)
	}
}
