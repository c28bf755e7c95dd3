package router

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/topology"
)

// fuzzBytes hands out fuzz input one decision at a time. Once the input
// runs out it continues with a splitmix64 stream seeded from the whole
// input, so a short input still decodes to a fully populated router
// while its prefix steers the shape (mesh, VNs, VC count, algorithms).
type fuzzBytes struct {
	data []byte
	i    int
	s    uint64
}

func newFuzzBytes(data []byte) *fuzzBytes {
	h := fnv.New64a()
	h.Write(data)
	return &fuzzBytes{data: data, s: h.Sum64()}
}

func (b *fuzzBytes) byte() byte {
	if b.i < len(b.data) {
		b.i++
		return b.data[b.i-1]
	}
	b.s += 0x9e3779b97f4a7c15
	z := b.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return byte(z ^ z>>31)
}

// intn returns a value in [0, n): one byte for n ≤ 256, two above.
func (b *fuzzBytes) intn(n int) int {
	v := int(b.byte())
	if n > 256 {
		v = v<<8 | int(b.byte())
	}
	return v % n
}

// chance reports true with probability 1/n.
func (b *fuzzBytes) chance(n int) bool { return b.intn(n) == 0 }

// allocCase is one decoded router plus the bytes that drive its cycles.
type allocCase struct {
	b      *fuzzBytes
	r      *Router
	env    *fakeEnv
	nextID uint64
}

func (c *allocCase) packet(dst int, class message.Class, n int) *message.Packet {
	c.nextID++
	return message.NewPacket(c.nextID, c.r.ID, dst, class, n, c.env.cycle)
}

// decodeAllocCase builds a router in a random but consistent state:
// heads at every stage (arriving, awaiting VC allocation, allocated and
// streaming), partially taken downstream credits, ejection locks, and
// arbitrary arbiter pointers and cycle.
func decodeAllocCase(data []byte) *allocCase {
	b := newFuzzBytes(data)
	m := topology.NewMesh(2+b.intn(3), 2+b.intn(3))
	id := b.intn(m.NumNodes())
	vns := 1
	if b.chance(2) {
		vns = int(message.NumClasses)
	}
	vcs := 1 + b.intn(64/vns)
	algs := make([]routing.Algorithm, vcs)
	for i := range algs {
		algs[i] = routing.Algorithm(b.intn(int(routing.FullyAdaptive) + 1))
	}
	classVN := func(message.Class) int { return 0 }
	if vns > 1 {
		classVN = func(c message.Class) int { return int(c) }
	}
	cfg := Config{NumVNs: vns, VCsPerVN: vcs, BufFlits: 5, InjQueueFlits: 10, VCAlgorithms: algs, ClassVN: classVN}
	env := newFakeEnv()
	env.stalledPorts = map[int]bool{}
	env.cycle = int64(b.intn(1 << 16))
	c := &allocCase{b: b, r: New(id, m, cfg, env), env: env}
	r := c.r
	for p := 1; p < len(r.vcFree); p++ {
		for v := 0; v < cfg.NetVCs(); v++ {
			if b.chance(3) {
				r.ClaimDownstreamVC(topology.Direction(p), v)
			}
		}
	}
	for p, iu := range r.Inputs {
		for v, vc := range iu.VCs {
			if b.chance(3) {
				continue
			}
			class := message.Class(v)
			if p != int(topology.Local) {
				class = message.Class(b.intn(int(message.NumClasses)))
				if vns > 1 {
					class = message.Class(v / vcs)
				}
			}
			pk := c.packet(b.intn(m.NumNodes()), class, 1+b.intn(5))
			if p == int(topology.Local) {
				vc.EnqueueWhole(pk, env.cycle)
				for k := b.intn(3); k > 0; k-- {
					if q := c.packet(b.intn(m.NumNodes()), class, 1+b.intn(5)); vc.CanAccept(q.Len) {
						vc.EnqueueWhole(q, env.cycle)
					}
				}
			} else {
				vc.AcceptHead(pk, env.cycle)
				for k := b.intn(pk.Len); k > 0; k-- {
					vc.AcceptBody(pk, env.cycle)
				}
			}
			e := vc.Head()
			sent := b.intn(min(e.Arrived, pk.Len-1) + 1)
			if sent == 0 && b.chance(2) {
				continue
			}
			c.allocate(e)
			vc.sync()
			for ; sent > 0; sent-- {
				vc.SendFlit(env.cycle)
			}
		}
	}
	for _, a := range r.saInArb {
		a.next = b.intn(a.n)
	}
	for _, a := range r.saOutArb {
		a.next = b.intn(a.n)
	}
	r.portTie.next = b.intn(r.portTie.n)
	return c
}

// allocate marks e as already holding an output: ejection (locking its
// class) when it is at its destination, else a random linked port and
// downstream VC (taking that credit).
func (c *allocCase) allocate(e *Entry) {
	r := c.r
	e.Allocated = true
	if e.Pkt.Dst == r.ID {
		e.OutPort, e.OutVC = topology.Local, int(e.Pkt.Class)
		r.ejecting[e.Pkt.Class] = true
		return
	}
	var linked []topology.Direction
	for p := 1; p < len(r.outLinks); p++ {
		if r.outLinks[p] >= 0 {
			linked = append(linked, topology.Direction(p))
		}
	}
	e.OutPort = linked[c.b.intn(len(linked))]
	e.OutVC = c.b.intn(r.Cfg.NetVCs())
	r.ClaimDownstreamVC(e.OutPort, e.OutVC)
}

// cycle sets this cycle's claims, stalls and NIC refusals, steps the
// router with step, logs everything observable, then perturbs the VCs
// the way the network does between cycles: body flits and fresh heads
// arrive, credits return, packets inject, and controllers pull heads.
func (c *allocCase) cycle(step func(*Router), log *strings.Builder) {
	b, r, env := c.b, c.r, c.env
	clear(env.claimLinks)
	for p := 1; p < len(r.outLinks); p++ {
		if r.outLinks[p] >= 0 && b.chance(4) {
			env.claimLinks[r.outLinks[p]] = true
		}
	}
	env.claimEject[r.ID] = b.chance(4)
	for p := range r.Inputs {
		env.stalledPorts[p] = b.chance(6)
	}
	for cl := message.Class(0); cl < message.NumClasses; cl++ {
		env.ejectDeny[cl] = b.chance(4)
	}

	step(r)
	c.log(log)

	nodes := r.Mesh.NumNodes()
	for p := 1; p < len(r.Inputs); p++ {
		for v, vc := range r.Inputs[p].VCs {
			switch e := vc.Head(); {
			case e == nil && b.chance(4):
				class := message.Class(b.intn(int(message.NumClasses)))
				if r.Cfg.NumVNs > 1 {
					class = message.Class(v / r.Cfg.VCsPerVN)
				}
				vc.AcceptHead(c.packet(b.intn(nodes), class, 1+b.intn(5)), env.cycle)
			case e != nil && e.Arrived < e.Pkt.Len && b.chance(2):
				vc.AcceptBody(e.Pkt, env.cycle)
			case e != nil && e.FullyBuffered() && b.chance(16):
				r.RemoveHeadPacket(topology.Direction(p), v)
			}
		}
		for v := 0; v < r.Cfg.NetVCs(); v++ {
			if b.chance(3) {
				r.MarkVCFree(topology.Direction(p), v)
			}
		}
	}
	for cl := message.Class(0); cl < message.NumClasses; cl++ {
		if b.chance(4) {
			r.InjectPacket(c.packet(b.intn(nodes), cl, 1+b.intn(5)))
		}
	}
	env.cycle++
}

// log appends one line per observable: flits out, ejections and
// credits in call order, then the credit view, ejection locks, arbiter
// pointers, counters and every head entry's allocation state.
func (c *allocCase) log(w *strings.Builder) {
	r, env := c.r, c.env
	fmt.Fprintf(w, "cycle %d\n", env.cycle)
	for _, f := range env.sentFlits {
		fmt.Fprintf(w, "send link=%d pkt=%d seq=%d vc=%d\n", f.link, f.flit.Pkt.ID, f.flit.Seq, f.outVC)
	}
	for _, f := range env.ejected {
		fmt.Fprintf(w, "eject pkt=%d seq=%d\n", f.Pkt.ID, f.Seq)
	}
	for _, cr := range env.credits {
		fmt.Fprintf(w, "credit link=%d vc=%d\n", cr.link, cr.vc)
	}
	env.sentFlits, env.ejected, env.credits = env.sentFlits[:0], env.ejected[:0], env.credits[:0]
	fmt.Fprintf(w, "vcFree=%x ejecting=%v pendingEj=%d\n", r.vcFree, r.ejecting, env.pendingEj)
	for p := range r.Inputs {
		fmt.Fprintf(w, "arb in[%d]=%d out[%d]=%d\n", p, r.saInArb[p].next, p, r.saOutArb[p].next)
	}
	fmt.Fprintf(w, "tie=%d stalls=%d routed=%d\n", r.portTie.next, r.SwitchStalls, r.FlitsRouted)
	for p, iu := range r.Inputs {
		for v, vc := range iu.VCs {
			if e := vc.Head(); e != nil {
				fmt.Fprintf(w, "head %d/%d pkt=%d arr=%d sent=%d alloc=%v out=%d/%d\n",
					p, v, e.Pkt.ID, e.Arrived, e.Sent, e.Allocated, e.OutPort, e.OutVC)
			}
		}
	}
}

// checkMasks fails unless the router's head masks match its VC contents.
func checkMasks(t testing.TB, r *Router, when string) {
	t.Helper()
	pend, ready := recomputedMasks(r)
	for p := range pend {
		if r.pend[p] != pend[p] || r.ready[p] != ready[p] {
			t.Fatalf("%s: port %d masks pend=%x ready=%x, VC contents give pend=%x ready=%x",
				when, p, r.pend[p], r.ready[p], pend[p], ready[p])
		}
	}
}

const allocCycles = 12

// runAllocCase decodes data and runs allocCycles cycles with step,
// returning the observation log. With masks set it also asserts the head
// masks after decoding and after every step and perturbation.
func runAllocCase(t testing.TB, data []byte, step func(*Router), masks bool) string {
	c := decodeAllocCase(data)
	var log strings.Builder
	for k := 0; k < allocCycles; k++ {
		if masks {
			checkMasks(t, c.r, fmt.Sprintf("before cycle %d", k))
		}
		c.cycle(step, &log)
	}
	if masks {
		checkMasks(t, c.r, "end")
	}
	return log.String()
}

// FuzzAllocatorOracle steps the mask allocator (Router.Step) and the
// dense oracle (oracleStep) from identical copies of a decoded router
// state and requires identical observations every cycle: transmitted
// and ejected flits in order, upstream credits, the credit view,
// ejection locks, every arbiter pointer, SwitchStalls and each head's
// allocation.
func FuzzAllocatorOracle(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 0, 0, 0},
		{2, 2, 4, 0, 63},
		{2, 2, 4, 1, 9},
		{0, 0, 1, 1, 1, 3, 2},
		{1, 2, 7, 0, 3, 3, 3, 3},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := runAllocCase(t, data, (*Router).Step, true)
		want := runAllocCase(t, data, oracleStep, false)
		if got == want {
			return
		}
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("mask allocator diverges from the dense oracle at log line %d:\n got  %s\n want %s", i, g[i], w[i])
			}
		}
		t.Fatalf("log lengths differ: %d vs %d lines", len(g), len(w))
	})
}
