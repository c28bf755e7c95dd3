// Package router implements the input-buffered virtual-channel router
// shared by FastPass and every baseline scheme: per-port input units
// with virtual channels, virtual cut-through flow control (single packet
// per network VC, Table II), separable round-robin VC and switch
// allocation, and credit signalling back to upstream routers.
//
// Scheme-specific behaviour is injected from outside: routing algorithms
// per VC index (escape channels), link/ejection claims made by bypass
// controllers (FastPass lanes, Pitstop), and forced packet moves
// (SPIN/SWAP/DRAIN) through the explicit buffer-manipulation API.
package router

import (
	"fmt"

	"repro/internal/message"
	"repro/internal/ringq"
	"repro/internal/topology"
)

// Entry is one packet resident in (or streaming through) a virtual
// channel.
type Entry struct {
	Pkt *message.Packet
	// Arrived counts flits of the packet that have been written into
	// this buffer; Sent counts flits forwarded out. Cut-through allows
	// Sent to trail Arrived before the tail lands.
	Arrived, Sent int
	// Allocated reports whether the head flit has been granted an
	// output VC; OutPort/OutVC are valid once it is.
	Allocated bool
	OutPort   topology.Direction
	OutVC     int
	// EnqueueCycle is when the head flit entered this buffer, and
	// LastMove the last cycle any flit of this packet advanced; the
	// difference while parked at the front of the VC is the blocked
	// time used by SPIN's detection threshold and SWAP's duty checks.
	EnqueueCycle, LastMove int64
}

// FullyBuffered reports whether every flit of the packet is resident and
// none have departed — the state in which forced moves (SWAP, SPIN,
// DRAIN) may relocate the packet atomically.
func (e *Entry) FullyBuffered() bool {
	return e.Arrived == e.Pkt.Len && e.Sent == 0
}

// VC is a virtual-channel buffer. Network VCs hold at most one packet
// (virtual cut-through, single packet per VC); injection-queue VCs hold
// a FIFO of whole packets bounded by flit capacity.
//
// Entries live in a ring buffer and are recycled through a per-VC free
// list, so steady-state traffic through a VC touches the allocator not
// at all. A released entry has Pkt set to nil, turning any stale-pointer
// use into an immediate nil dereference rather than silent corruption.
type VC struct {
	// CapFlits bounds total buffered flits; MaxPkts bounds the packet
	// FIFO depth (1 for network VCs).
	CapFlits, MaxPkts int
	entries           ringq.Ring[*Entry]
	flits             int
	freeEntries       []*Entry

	// own, when set, points at the owning router's resident counter and
	// head masks, which the VC keeps current on every mutation, even
	// when controllers manipulate VCs directly. One pointer keeps VC at
	// 96 B (TestVCSize).
	own *vcOwner
}

// vcOwner is a router's per-VC back-reference: its resident counter,
// the pend/ready masks of the VC's input port, and the VC's bit in them.
type vcOwner struct {
	resident    *int
	pend, ready *uint64
	bit         uint64
}

// sync recomputes the VC's pend and ready bits from its head entry;
// every mutator ends with it, as does tryAllocate.
func (v *VC) sync() {
	o := v.own
	if o == nil {
		return
	}
	*o.pend &^= o.bit
	*o.ready &^= o.bit
	e := v.Head()
	switch {
	case e == nil || e.Arrived < 1:
	case !e.Allocated:
		*o.pend |= o.bit
	case e.Sent < e.Arrived:
		*o.ready |= o.bit
	}
}

// NewVC constructs a VC with the given capacities.
func NewVC(capFlits, maxPkts int) *VC {
	if capFlits < 1 || maxPkts < 1 {
		panic(fmt.Sprintf("router: invalid VC capacity (%d flits, %d pkts)", capFlits, maxPkts))
	}
	return &VC{CapFlits: capFlits, MaxPkts: maxPkts}
}

// alloc hands out a reset entry from the free list (or the allocator on
// first use) and counts the packet as resident.
func (v *VC) alloc(pkt *message.Packet, arrived int, cycle int64) *Entry {
	var e *Entry
	if n := len(v.freeEntries); n > 0 {
		e = v.freeEntries[n-1]
		v.freeEntries[n-1] = nil
		v.freeEntries = v.freeEntries[:n-1]
		*e = Entry{}
	} else {
		e = &Entry{} //nocvet:ignore hotalloc free-list warm-up: allocates only until the pool reaches working-set size, then recycles
	}
	e.Pkt = pkt
	e.Arrived = arrived
	e.EnqueueCycle = cycle
	e.LastMove = cycle
	if v.own != nil {
		*v.own.resident++
	}
	return e
}

// release returns an entry to the free list and uncounts its packet.
func (v *VC) release(e *Entry) {
	e.Pkt = nil
	v.freeEntries = append(v.freeEntries, e)
	if v.own != nil {
		*v.own.resident--
	}
}

// Empty reports whether the VC holds no packets.
func (v *VC) Empty() bool { return v.entries.Empty() }

// Len reports the number of resident packets.
func (v *VC) Len() int { return v.entries.Len() }

// Flits reports the number of buffered flits.
func (v *VC) Flits() int { return v.flits }

// FreeFlits reports remaining flit capacity.
func (v *VC) FreeFlits() int { return v.CapFlits - v.flits }

// Head returns the front entry, or nil when empty.
func (v *VC) Head() *Entry {
	if v.entries.Empty() {
		return nil
	}
	return v.entries.Front()
}

// EntryAt returns the resident entry at position i (0 = front). The
// entry is owned by the VC; it is recycled when its packet departs.
func (v *VC) EntryAt(i int) *Entry { return v.entries.At(i) }

// CanAccept reports whether a packet of length flits could be enqueued
// whole right now.
func (v *VC) CanAccept(flitLen int) bool {
	return v.entries.Len() < v.MaxPkts && v.flits+flitLen <= v.CapFlits
}

// EnqueueWhole inserts a packet with all flits present (injection
// queues, forced moves). It panics when capacity would be violated —
// callers must check CanAccept (or deliberately use EnqueueOverflow).
func (v *VC) EnqueueWhole(pkt *message.Packet, cycle int64) *Entry {
	if !v.CanAccept(pkt.Len) {
		panic(fmt.Sprintf("router: EnqueueWhole over capacity (%s)", pkt))
	}
	return v.EnqueueOverflow(pkt, cycle)
}

// EnqueueOverflow inserts a packet with all flits present even if doing
// so exceeds the configured capacity. FastPass uses it for rejected
// FastPass-Packets returning to their prime's request injection queue:
// the paper's router provides dedicated paths (Fig. 6, purple/green)
// guaranteeing the returned packet a slot, and never drops it (Qn 2).
func (v *VC) EnqueueOverflow(pkt *message.Packet, cycle int64) *Entry {
	e := v.alloc(pkt, pkt.Len, cycle)
	v.entries.PushBack(e)
	v.flits += pkt.Len
	v.sync()
	return e
}

// EnqueueFrontOverflow inserts a packet with all flits present at the
// front of the FIFO, ignoring capacity. FastPass parks rejected
// FastPass-Packets this way so the prime's scan — which always starts
// with the request injection queue — re-selects them first (Qn 2,
// Fig. 5a). If the current head has already sent flits, the packet slots
// in right behind it to preserve wormhole integrity.
func (v *VC) EnqueueFrontOverflow(pkt *message.Packet, cycle int64) *Entry {
	e := v.alloc(pkt, pkt.Len, cycle)
	pos := 0
	if h := v.Head(); h != nil && h.Sent > 0 {
		pos = 1
	}
	v.entries.InsertAt(pos, e)
	v.flits += pkt.Len
	v.sync()
	return e
}

// AcceptHead starts receiving a packet flit-by-flit from a link (network
// VCs). The VC must be free.
func (v *VC) AcceptHead(pkt *message.Packet, cycle int64) *Entry {
	if v.entries.Len() >= v.MaxPkts {
		panic(fmt.Sprintf("router: head flit into occupied VC (%s)", pkt))
	}
	e := v.alloc(pkt, 1, cycle)
	v.entries.PushBack(e)
	v.flits++
	v.sync()
	return e
}

// AcceptBody receives a subsequent flit of the in-flight tail packet.
func (v *VC) AcceptBody(pkt *message.Packet, cycle int64) {
	e := v.entries.At(v.entries.Len() - 1)
	if e.Pkt != pkt {
		panic(fmt.Sprintf("router: body flit of %s interleaved into VC holding %s", pkt, e.Pkt))
	}
	if e.Arrived >= e.Pkt.Len {
		panic(fmt.Sprintf("router: too many flits for %s", pkt))
	}
	e.Arrived++
	e.LastMove = cycle
	v.flits++
	v.sync()
}

// SendFlit records the departure of the next flit of the head packet
// and returns it. When the tail departs, the entry is popped — and
// recycled: callers must not touch the entry afterwards — and done is
// true (the VC, or its slot, is free again).
func (v *VC) SendFlit(cycle int64) (f message.Flit, done bool) {
	e := v.Head()
	if e == nil || e.Sent >= e.Arrived {
		panic("router: SendFlit with no flit available")
	}
	f = message.Flit{Pkt: e.Pkt, Seq: e.Sent}
	e.Sent++
	e.LastMove = cycle
	v.flits--
	done = e.Sent == e.Pkt.Len
	if done {
		v.entries.PopFront()
		v.release(e)
	}
	v.sync()
	return f, done
}

// RemoveHead extracts the entire head packet atomically (upgrades to
// FastPass, forced moves, dynamic-bubble drops). The head must be fully
// buffered.
func (v *VC) RemoveHead() *message.Packet {
	e := v.Head()
	if e == nil {
		panic("router: RemoveHead on empty VC")
	}
	if !e.FullyBuffered() {
		panic(fmt.Sprintf("router: RemoveHead on streaming packet %s", e.Pkt))
	}
	pkt := e.Pkt
	v.entries.PopFront()
	v.flits -= pkt.Len
	v.release(e)
	v.sync()
	return pkt
}

// RemoveAt extracts the fully-buffered packet at index i (dynamic-bubble
// dropping picks victims from the back of the request injection queue).
func (v *VC) RemoveAt(i int) *message.Packet {
	e := v.entries.At(i)
	if !e.FullyBuffered() {
		panic(fmt.Sprintf("router: RemoveAt on streaming packet %s", e.Pkt))
	}
	pkt := e.Pkt
	v.entries.RemoveAt(i)
	v.flits -= pkt.Len
	v.release(e)
	v.sync()
	return pkt
}
