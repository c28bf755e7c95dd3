package router

import (
	"repro/internal/message"
	"repro/internal/routing"
	"repro/internal/topology"
)

// This file keeps the dense VC and switch allocator that the head masks
// replaced, as a reference model for FuzzAllocatorOracle. It scans every
// (port, VC) slot, rebuilds per-port candidate VC lists and bool request
// vectors, and never reads pend, ready or candVCs; router state it shares
// with the mask allocator (credits, ejection locks, arbiters, counters)
// goes through the same fields, so both can be stepped from identical
// copies and compared.

// oracleStep is Router.Step on the dense allocator.
func oracleStep(r *Router) {
	oracleAllocateVCs(r)
	oracleSwitchAllocate(r)
}

// grantSlice is the old RRArbiter.GrantSlice: Grant over a bool vector.
func grantSlice(a *RRArbiter, reqs []bool) int {
	return a.Grant(func(i int) bool { return reqs[i] })
}

// oracleAllocateVCs visits every (port, vc) slot from cycle mod the slot
// count and allocates each arrived, unallocated head.
func oracleAllocateVCs(r *Router) {
	type slot struct{ port, vc int }
	var slots []slot
	for p, iu := range r.Inputs {
		for v := range iu.VCs {
			slots = append(slots, slot{p, v})
		}
	}
	start := int(r.Env.Cycle() % int64(len(slots)))
	for k := range slots {
		s := slots[(start+k)%len(slots)]
		e := r.Inputs[s.port].VCs[s.vc].Head()
		if e == nil || e.Allocated || e.Arrived < 1 {
			continue
		}
		oracleTryAllocate(r, e)
	}
}

// oracleAllowedPorts lists the candidate output ports in order of first
// appearance over the per-VC routing algorithms, and for each the usable
// global VC indices in VC-algorithm order.
func oracleAllowedPorts(r *Router, pkt *message.Packet) ([]topology.Direction, [][]int) {
	vn := r.Cfg.ClassVN(pkt.Class)
	var ports []topology.Direction
	cand := make([][]int, len(r.Inputs))
	for vcIdx, alg := range r.Cfg.VCAlgorithms {
		f := routing.ForAlgorithm(alg)
		for _, p := range f(r.Mesh, nil, r.ID, pkt.Dst) {
			if r.outLinks[p] < 0 {
				continue
			}
			if len(cand[p]) == 0 {
				ports = append(ports, p)
			}
			cand[p] = append(cand[p], vn*r.Cfg.VCsPerVN+vcIdx)
		}
	}
	return ports, cand
}

func oracleTryAllocate(r *Router, e *Entry) {
	pkt := e.Pkt
	if pkt.Dst == r.ID {
		if r.ejecting[pkt.Class] || !r.Env.CanEject(r.ID, pkt) {
			return
		}
		r.Env.BeginEject(r.ID, pkt)
		r.ejecting[pkt.Class] = true
		e.Allocated = true
		e.OutPort = topology.Local
		e.OutVC = int(pkt.Class)
		return
	}
	ports, cand := oracleAllowedPorts(r, pkt)
	bestScore := 0
	var best []topology.Direction
	for _, p := range ports {
		score := 0
		for _, gvc := range cand[p] {
			if r.DownstreamVCFree(p, gvc) {
				score++
			}
		}
		if score == 0 {
			continue
		}
		if score > bestScore {
			bestScore = score
			best = best[:0]
		}
		if score == bestScore {
			best = append(best, p)
		}
	}
	if len(best) == 0 {
		return
	}
	choice := best[0]
	if len(best) > 1 {
		isBest := make([]bool, len(r.Inputs))
		for _, p := range best {
			isBest[p] = true
		}
		if g := grantSlice(r.portTie, isBest); g >= 0 {
			choice = topology.Direction(g)
		}
	}
	pick := -1
	for _, gvc := range cand[choice] {
		if r.DownstreamVCFree(choice, gvc) && gvc > pick {
			pick = gvc
		}
	}
	if pick < 0 {
		return
	}
	r.ClaimDownstreamVC(choice, pick)
	e.Allocated = true
	e.OutPort = choice
	e.OutVC = pick
}

// oracleSendable reports whether the VC's head entry can move a flit
// this cycle.
func oracleSendable(r *Router, v *VC) bool {
	e := v.Head()
	if e == nil || !e.Allocated || e.Sent >= e.Arrived {
		return false
	}
	if e.OutPort == topology.Local {
		return !r.Env.EjectClaimed(r.ID)
	}
	return !r.Env.LinkClaimed(r.outLinks[e.OutPort])
}

func oracleSwitchAllocate(r *Router) {
	nPorts := len(r.Inputs)
	nominee := make([]int, nPorts)
	for p := 0; p < nPorts; p++ {
		iu := r.Inputs[p]
		if r.Env.InputStalled(r.ID, p) {
			nominee[p] = -1
			continue
		}
		reqs := make([]bool, len(iu.VCs))
		for v := range iu.VCs {
			reqs[v] = oracleSendable(r, iu.VCs[v])
		}
		nominee[p] = grantSlice(r.saInArb[p], reqs)
	}
	granted := make([]bool, nPorts)
	for out := 0; out < nPorts; out++ {
		rq := make([]bool, nPorts)
		any := false
		for in := 0; in < nPorts; in++ {
			if granted[in] || nominee[in] < 0 {
				continue
			}
			if int(r.Inputs[in].VCs[nominee[in]].Head().OutPort) == out {
				rq[in] = true
				any = true
			}
		}
		if !any {
			continue
		}
		winner := grantSlice(r.saOutArb[out], rq)
		if winner < 0 {
			continue
		}
		granted[winner] = true
		r.transmit(topology.Direction(winner), nominee[winner])
	}
	for p := 0; p < nPorts; p++ {
		if nominee[p] >= 0 && !granted[p] {
			r.SwitchStalls++
		}
	}
}

// recomputedMasks derives the head masks from VC contents alone.
func recomputedMasks(r *Router) (pend, ready []uint64) {
	pend = make([]uint64, len(r.Inputs))
	ready = make([]uint64, len(r.Inputs))
	for p, iu := range r.Inputs {
		for v, vc := range iu.VCs {
			e := vc.Head()
			if e == nil || e.Arrived < 1 {
				continue
			}
			if !e.Allocated {
				pend[p] |= 1 << v
			} else if e.Sent < e.Arrived {
				ready[p] |= 1 << v
			}
		}
	}
	return pend, ready
}
