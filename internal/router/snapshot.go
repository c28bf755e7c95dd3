package router

import (
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// SnapshotState encodes one VC: buffered flit count plus every resident
// entry front-to-back. Entry structs themselves are representation
// (recycled through the free list); their fields are the state.
func (v *VC) SnapshotState(w *snapshot.Writer) {
	w.Int(v.flits)
	w.Int(v.entries.Len())
	for i := 0; i < v.entries.Len(); i++ {
		e := v.entries.At(i)
		w.Packet(e.Pkt)
		w.Int(e.Arrived)
		w.Int(e.Sent)
		w.Bool(e.Allocated)
		w.Int(int(e.OutPort))
		w.Int(e.OutVC)
		w.I64(e.EnqueueCycle)
		w.I64(e.LastMove)
	}
}

// RestoreState decodes into a freshly built (empty) VC. Entries are
// reconstructed through alloc so the owning router's resident counter
// comes out right without being encoded separately.
func (v *VC) RestoreState(r *snapshot.Reader) {
	for v.entries.Len() > 0 {
		v.flits -= v.entries.Front().Pkt.Len
		v.release(v.entries.PopFront())
	}
	flits := r.Int()
	n := r.Int()
	for i := 0; i < n && r.Err() == nil; i++ {
		e := v.alloc(r.Packet(), 0, 0)
		e.Arrived = r.Int()
		e.Sent = r.Int()
		e.Allocated = r.Bool()
		e.OutPort = topology.Direction(r.Int())
		e.OutVC = r.Int()
		e.EnqueueCycle = r.I64()
		e.LastMove = r.I64()
		v.entries.PushBack(e)
	}
	v.flits = flits
	v.sync()
}

// SnapshotState encodes the router's mutable state: credit view (one
// bool per downstream VC), per-class ejection locks, every input VC,
// and the round-robin arbiter cursors (arbitration history is state — a
// restored run must grant in the same rotation order).
func (rt *Router) SnapshotState(w *snapshot.Writer) {
	for p := 1; p < len(rt.vcFree); p++ {
		for v := 0; v < rt.Cfg.NetVCs(); v++ {
			w.Bool(rt.DownstreamVCFree(topology.Direction(p), v))
		}
	}
	for c := range rt.ejecting {
		w.Bool(rt.ejecting[c])
	}
	for _, iu := range rt.Inputs {
		for _, v := range iu.VCs {
			v.SnapshotState(w)
		}
	}
	for _, a := range rt.saInArb {
		w.Int(a.next)
	}
	for _, a := range rt.saOutArb {
		w.Int(a.next)
	}
	w.Int(rt.portTie.next)
	w.I64(rt.FlitsRouted)
	w.I64(rt.SwitchStalls)
}

// RestoreState decodes into a freshly built router (all credits free);
// each VC's restore rebuilds its head-mask bits.
func (rt *Router) RestoreState(r *snapshot.Reader) {
	for p := 1; p < len(rt.vcFree); p++ {
		for v := 0; v < rt.Cfg.NetVCs(); v++ {
			if !r.Bool() {
				rt.ClaimDownstreamVC(topology.Direction(p), v)
			}
		}
	}
	for c := range rt.ejecting {
		rt.ejecting[c] = r.Bool()
	}
	for _, iu := range rt.Inputs {
		for _, v := range iu.VCs {
			v.RestoreState(r)
		}
	}
	for _, a := range rt.saInArb {
		a.next = r.Int()
	}
	for _, a := range rt.saOutArb {
		a.next = r.Int()
	}
	rt.portTie.next = r.Int()
	rt.FlitsRouted = r.I64()
	rt.SwitchStalls = r.I64()
}

func init() {
	snapshot.Register("router.Router", Router{},
		[]string{
			"vcFree", "ejecting", "Inputs",
			// resident is reconstructed by VC restore through each
			// VC's owner (one increment per rebuilt entry).
			"resident",
			"saInArb", "saOutArb", "portTie",
			"FlitsRouted", "SwitchStalls",
		},
		[]string{
			// Wiring and sizing from New.
			"ID", "Mesh", "Cfg", "Env", "outLinks", "inLinks",
			"owners",
			// Head masks: derived from VC contents, rebuilt by the
			// sync that ends each VC's restore.
			"pend", "ready",
			// Per-cycle scratch, rewritten before every read.
			"nominee", "outReq", "candPorts", "candVCs", "routeBuf",
		})
	snapshot.Register("router.InputUnit", InputUnit{},
		[]string{"VCs"},
		[]string{"Port"})
	snapshot.Register("router.VC", VC{},
		[]string{"entries", "flits"},
		[]string{"CapFlits", "MaxPkts", "freeEntries", "own"})
	snapshot.Register("router.Entry", Entry{},
		[]string{"Pkt", "Arrived", "Sent", "Allocated", "OutPort", "OutVC", "EnqueueCycle", "LastMove"},
		nil)
	snapshot.Register("router.RRArbiter", RRArbiter{},
		[]string{"next"},
		[]string{"n"})
}
