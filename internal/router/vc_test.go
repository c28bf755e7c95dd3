package router

import (
	"testing"
	"unsafe"

	"repro/internal/message"
)

func pkt(id uint64, n int) *message.Packet {
	return message.NewPacket(id, 0, 1, message.Request, n, 0)
}

func TestVCEnqueueSendWhole(t *testing.T) {
	v := NewVC(5, 1)
	p := pkt(1, 3)
	if !v.CanAccept(3) {
		t.Fatal("fresh VC should accept")
	}
	e := v.EnqueueWhole(p, 0)
	if !e.FullyBuffered() {
		t.Error("whole packet should be fully buffered")
	}
	if v.Flits() != 3 || v.FreeFlits() != 2 {
		t.Errorf("flits=%d free=%d", v.Flits(), v.FreeFlits())
	}
	if v.CanAccept(1) {
		t.Error("single-packet VC must reject a second packet")
	}
	for i := 0; i < 3; i++ {
		f, done := v.SendFlit(int64(i))
		if f.Seq != i {
			t.Errorf("flit %d has seq %d", i, f.Seq)
		}
		if done != (i == 2) {
			t.Errorf("done=%v at flit %d", done, i)
		}
	}
	if !v.Empty() || v.Flits() != 0 {
		t.Error("VC should be empty after tail departs")
	}
}

func TestVCCutThroughStreaming(t *testing.T) {
	v := NewVC(5, 1)
	p := pkt(2, 5)
	e := v.AcceptHead(p, 10)
	if e.Arrived != 1 {
		t.Fatalf("arrived=%d", e.Arrived)
	}
	// Forward the head before the body lands (cut-through).
	if _, done := v.SendFlit(11); done {
		t.Fatal("head of 5-flit packet is not the tail")
	}
	v.AcceptBody(p, 11)
	v.AcceptBody(p, 12)
	if e.Arrived != 3 || e.Sent != 1 {
		t.Fatalf("arrived=%d sent=%d", e.Arrived, e.Sent)
	}
	if e.FullyBuffered() {
		t.Error("streaming packet must not be FullyBuffered")
	}
}

func TestVCAcceptHeadPanicsWhenOccupied(t *testing.T) {
	v := NewVC(5, 1)
	v.AcceptHead(pkt(1, 1), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.AcceptHead(pkt(2, 1), 0)
}

func TestVCAcceptBodyWrongPacketPanics(t *testing.T) {
	v := NewVC(5, 1)
	v.AcceptHead(pkt(1, 2), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.AcceptBody(pkt(2, 2), 1)
}

func TestVCMultiPacketFIFO(t *testing.T) {
	v := NewVC(10, 10) // injection-style queue
	a, b, c := pkt(1, 5), pkt(2, 4), pkt(3, 1)
	v.EnqueueWhole(a, 0)
	v.EnqueueWhole(b, 0)
	v.EnqueueWhole(c, 0)
	if v.Len() != 3 || v.Flits() != 10 {
		t.Fatalf("len=%d flits=%d", v.Len(), v.Flits())
	}
	if v.CanAccept(1) {
		t.Error("queue at flit capacity must reject")
	}
	if got := v.RemoveHead(); got != a {
		t.Errorf("RemoveHead = %v, want %v", got, a)
	}
	if got := v.RemoveAt(1); got != c {
		t.Errorf("RemoveAt(1) = %v, want %v", got, c)
	}
	if v.Head().Pkt != b {
		t.Error("b should remain at head")
	}
}

func TestVCEnqueueOverflowExceedsCapacity(t *testing.T) {
	v := NewVC(5, 1)
	v.EnqueueWhole(pkt(1, 5), 0)
	v.EnqueueOverflow(pkt(2, 5), 0) // rejected FastPass return
	if v.Len() != 2 || v.Flits() != 10 {
		t.Errorf("len=%d flits=%d after overflow", v.Len(), v.Flits())
	}
}

func TestVCRemoveHeadStreamingPanics(t *testing.T) {
	v := NewVC(5, 1)
	v.AcceptHead(pkt(1, 3), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.RemoveHead()
}

func TestRRArbiterFairness(t *testing.T) {
	a := NewRRArbiter(4)
	all := func(int) bool { return true }
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, a.Grant(all))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants = %v, want %v", got, want)
		}
	}
}

func TestRRArbiterSkipsNonRequesters(t *testing.T) {
	a := NewRRArbiter(4)
	reqs := uint64(0b1010)
	if g := a.GrantMask(reqs); g != 1 {
		t.Errorf("grant = %d, want 1", g)
	}
	if g := a.GrantMask(reqs); g != 3 {
		t.Errorf("grant = %d, want 3", g)
	}
	if g := a.GrantMask(reqs); g != 1 {
		t.Errorf("grant wraps to 1, got %d", g)
	}
	none := uint64(0)
	if g := a.GrantMask(none); g != -1 {
		t.Errorf("no requesters should yield -1, got %d", g)
	}
}

func TestRRArbiterPointerHoldsWithoutGrant(t *testing.T) {
	a := NewRRArbiter(3)
	a.Grant(func(i int) bool { return i == 1 })
	a.Grant(func(int) bool { return false })
	if g := a.Grant(func(int) bool { return true }); g != 2 {
		t.Errorf("pointer should sit after last winner; got %d", g)
	}
}

// TestVCSize pins VC at 96 B. internal/irrnet shares the type, and a
// VC grown into the 128 B size class (24 B of extra fields, no logic)
// raised the irregular benchmark's peak RSS from about 10 MB to 13–39 MB
// through GC heap-goal spikes, while growing only Router did not. New
// per-VC router state belongs behind VC.own.
func TestVCSize(t *testing.T) {
	if got := unsafe.Sizeof(VC{}); got > 96 {
		t.Fatalf("router.VC is %d B, want at most 96", got)
	}
}
