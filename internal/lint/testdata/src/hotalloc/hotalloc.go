// Package hotalloc is a nocvet fixture: per-cycle allocation hygiene
// of a queue whose Tick is a //nocvet:hot root.
package hotalloc

// Packet stands in for the real message.Packet.
type Packet struct{ ID uint64 }

// Queue stands in for a NIC source queue or a router VC buffer.
type Queue struct {
	pkts    []*Packet
	scratch []int
}

// NewQueue may allocate: no hot root reaches construction.
func NewQueue(capHint int) *Queue {
	return &Queue{pkts: make([]*Packet, 0, capHint)}
}

// BadPrepend copies the whole queue to put one element in front.
func (q *Queue) BadPrepend(p *Packet) {
	q.pkts = append([]*Packet{p}, q.pkts...)
}

// BadPerCycleMake allocates a fresh scratch slice on every call.
func (q *Queue) BadPerCycleMake(n int) []int {
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		idx = append(idx, i)
	}
	return idx
}

// GoodReuse resets the struct-owned scratch buffer instead of making a
// new one.
func (q *Queue) GoodReuse(n int) []int {
	q.scratch = q.scratch[:0]
	for i := 0; i < n; i++ {
		q.scratch = append(q.scratch, i)
	}
	return q.scratch
}

// GoodTailAppend is an ordinary amortised append, not a prepend copy.
func (q *Queue) GoodTailAppend(p *Packet) {
	q.pkts = append(q.pkts, p)
}

// GoodVariadicJoin concatenates into a reused destination; the variadic
// append form alone is not the offence, the literal-first-arg copy is.
func (q *Queue) GoodVariadicJoin(dst, src []*Packet) []*Packet {
	return append(dst[:0], src...)
}

// Suppressed documents a make on a path that runs once per drain epoch,
// not once per cycle.
func (q *Queue) Suppressed(n int) []bool {
	return make([]bool, n) //nocvet:ignore hotalloc drain epilogue, runs once per quiescence check
}

// Tick is the queue's per-cycle work.
//
//nocvet:hot
func (q *Queue) Tick(n int) {
	q.BadPrepend(nil)
	q.BadPerCycleMake(n)
	q.GoodReuse(n)
	q.GoodTailAppend(nil)
	q.GoodVariadicJoin(q.pkts, q.pkts)
	q.Suppressed(n)
}
