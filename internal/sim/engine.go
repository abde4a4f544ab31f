// Package sim provides a deterministic discrete-event simulation engine.
//
// Events are ordered by (cycle, sequence number): events scheduled for the
// same cycle fire in the order they were scheduled, which makes simulations
// fully deterministic and therefore reproducible across runs and platforms.
//
// Internally the engine is a hierarchical calendar: a timing wheel of
// WheelSpan per-cycle FIFO buckets covers the near future [now, now+span),
// and a min-heap holds the far future. Event nodes are pooled and
// intrusively linked, and every event is a Handler (a pre-bound receiver),
// so steady-state scheduling performs zero heap allocations.
package sim

import (
	"fmt"
	"math/bits"

	"alloysim/internal/invariants"
)

// Cycle is a point in simulated time, measured in processor clock cycles.
type Cycle uint64

// Handler is a unit of work scheduled to run at a particular cycle: a
// pre-bound receiver whose Fire method runs when the event's cycle
// arrives. Scheduling a Handler through ScheduleHandler does not allocate
// in steady state.
type Handler interface {
	Fire(now Cycle)
}

const (
	wheelBits = 12
	// WheelSpan is the timing wheel's horizon in cycles. Events within
	// [now, now+WheelSpan) live in O(1) FIFO buckets; events at or beyond
	// the horizon wait in a fallback heap and cascade into the wheel as
	// the clock advances.
	WheelSpan = 1 << wheelBits
	wheelMask = WheelSpan - 1
	nodeBlock = 256 // pool growth granularity
)

// node is one scheduled event. Nodes are pooled: the engine owns them for
// their whole lifetime and recycles them through a freelist, so steady-state
// scheduling allocates nothing.
type node struct {
	at   Cycle
	seq  uint64
	h    Handler
	next *node
}

// bucket is one wheel slot: a FIFO list of nodes sharing a cycle. Because
// the wheel only ever holds cycles in [now, now+WheelSpan), each bucket
// holds at most one distinct cycle.
type bucket struct {
	head, tail *node
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now     Cycle
	seq     uint64
	nSteps  uint64
	pending int

	wheel   []bucket // WheelSpan buckets, indexed by cycle & wheelMask
	occ     []uint64 // occupancy bitmap over buckets
	summary uint64   // bit w set iff occ[w] != 0

	far nodeHeap // events at or beyond now+WheelSpan, keyed (at, seq)

	free  *node  // recycled nodes
	arena []node // current allocation block, carved into nodes
}

// NewEngine returns an engine with its clock at cycle zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

func (e *Engine) lazyInit() {
	if e.wheel == nil {
		e.wheel = make([]bucket, WheelSpan)
		e.occ = make([]uint64, WheelSpan/64)
	}
}

//alloyvet:hotpath
func (e *Engine) alloc() *node {
	if n := e.free; n != nil {
		e.free = n.next
		return n
	}
	if len(e.arena) == 0 {
		//alloyvet:allow(hotpath) amortized pool growth: one make per nodeBlock nodes
		e.arena = make([]node, nodeBlock)
	}
	n := &e.arena[0]
	e.arena = e.arena[1:]
	return n
}

//alloyvet:hotpath
func (e *Engine) release(n *node) {
	n.h = nil // drop the reference so pooled nodes don't pin work
	n.next = e.free
	e.free = n
}

// ScheduleHandler enqueues a pre-bound handler at an absolute cycle. The
// handler is typically a pointer receiver living in the model's own state,
// and the event node comes from the pool, so this allocates nothing.
// Scheduling in the past panics: it indicates a causality bug in the model.
//
//alloyvet:hotpath
func (e *Engine) ScheduleHandler(at Cycle, h Handler) {
	if at < e.now {
		//alloyvet:allow(hotpath) cold branch: a causality bug aborts the run
		panic(fmt.Sprintf("sim: scheduling event at cycle %d before now %d", at, e.now))
	}
	e.lazyInit()
	n := e.alloc()
	e.seq++
	n.at, n.seq, n.h = at, e.seq, h
	e.pending++
	if at < e.now+WheelSpan {
		e.wheelPush(n)
	} else {
		e.far.push(n)
	}
}

//alloyvet:hotpath
func (e *Engine) wheelPush(n *node) {
	n.next = nil
	i := int(n.at) & wheelMask
	b := &e.wheel[i]
	if b.tail == nil {
		b.head = n
		e.occ[i>>6] |= 1 << uint(i&63)
		e.summary |= 1 << uint(i>>6)
	} else {
		b.tail.next = n
	}
	b.tail = n
	if invariants.Enabled {
		e.checkWheelSlot(i)
	}
}

// checkWheelSlot asserts that the occupancy bitmap and summary word agree
// with the bucket's actual contents. Only meaningful under -tags
// invariants; a desynchronized bitmap makes nextOccupied skip or invent
// events silently.
func (e *Engine) checkWheelSlot(i int) {
	occupied := e.occ[i>>6]&(1<<uint(i&63)) != 0
	if occupied != (e.wheel[i].head != nil) {
		invariants.Failf("sim: wheel slot %d occupancy bit %v but head %v", i, occupied, e.wheel[i].head != nil)
	}
	if occupied && e.summary&(1<<uint(i>>6)) == 0 {
		invariants.Failf("sim: wheel slot %d occupied but summary bit %d clear", i, i>>6)
	}
}

// migrate cascades far-future events whose cycle has entered the wheel
// horizon into their buckets. It must run on every clock advance, before
// any event at the new cycle fires, so that same-cycle FIFO order across
// the wheel/heap boundary follows sequence numbers.
func (e *Engine) migrate() {
	horizon := e.now + WheelSpan
	for len(e.far) > 0 && e.far[0].at < horizon {
		e.wheelPush(e.far.pop())
	}
}

// nextOccupied returns the bucket index holding the earliest pending wheel
// cycle, or -1 when the wheel is empty. Buckets are scanned in circular
// order starting at now's slot, which visits cycles in increasing order
// because the wheel spans exactly [now, now+WheelSpan).
//
//alloyvet:hotpath
func (e *Engine) nextOccupied() int {
	if e.summary == 0 {
		return -1
	}
	start := int(e.now) & wheelMask
	w := start >> 6
	if m := e.occ[w] & (^uint64(0) << uint(start&63)); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	// Words strictly after w, then wrap around up to and including w (its
	// low bits hold cycles that wrapped modulo the span).
	if m := e.summary & (^uint64(0) << uint(w+1)); m != 0 {
		w2 := bits.TrailingZeros64(m)
		return w2<<6 + bits.TrailingZeros64(e.occ[w2])
	}
	if m := e.summary & ((1 << uint(w+1)) - 1); m != 0 {
		w2 := bits.TrailingZeros64(m)
		mm := e.occ[w2]
		if w2 == w {
			mm &= (1 << uint(start&63)) - 1
		}
		if mm != 0 {
			return w2<<6 + bits.TrailingZeros64(mm)
		}
	}
	return -1
}

// popNext removes and returns the earliest pending node, advancing the
// clock when the wheel must jump forward to the far heap.
//
//alloyvet:hotpath
func (e *Engine) popNext() *node {
	if e.pending == 0 {
		return nil
	}
	i := e.nextOccupied()
	if i < 0 {
		// Wheel drained: jump to the far heap's earliest cycle and
		// cascade everything now inside the horizon.
		e.now = e.far[0].at
		e.migrate()
		i = e.nextOccupied()
	}
	if invariants.Enabled {
		e.checkWheelSlot(i)
	}
	b := &e.wheel[i]
	n := b.head
	b.head = n.next
	if b.head == nil {
		b.tail = nil
		e.occ[i>>6] &^= 1 << uint(i&63)
		if e.occ[i>>6] == 0 {
			e.summary &^= 1 << uint(i>>6)
		}
	}
	e.pending--
	return n
}

// peekAt reports the cycle of the earliest pending event.
func (e *Engine) peekAt() (Cycle, bool) {
	if e.pending == 0 {
		return 0, false
	}
	if i := e.nextOccupied(); i >= 0 {
		return e.wheel[i].head.at, true
	}
	return e.far[0].at, true
}

// Step executes the next pending event, advancing the clock to its cycle.
// It reports whether an event was executed.
//
//alloyvet:hotpath
func (e *Engine) Step() bool {
	n := e.popNext()
	if n == nil {
		return false
	}
	if invariants.Enabled && n.at < e.now {
		invariants.Failf("sim: event time %d precedes clock %d; per-Step monotonicity broken", n.at, e.now)
	}
	e.now = n.at
	e.migrate() // the advance may pull far events into the horizon
	e.nSteps++
	h := n.h
	e.release(n) // recycle before firing: the handler may schedule again
	h.Fire(e.now)
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with cycle <= limit. Events scheduled beyond the
// limit remain queued. It reports whether the queue drained.
func (e *Engine) RunUntil(limit Cycle) bool {
	for {
		at, ok := e.peekAt()
		if !ok {
			return true
		}
		if at > limit {
			return false
		}
		e.Step()
	}
}

// nodeHeap is a min-heap of nodes ordered by (at, seq).
type nodeHeap []*node

func (h nodeHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *nodeHeap) push(n *node) {
	*h = append(*h, n)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *nodeHeap) pop() *node {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = nil // let the node be owned by its next home
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(s) && s.less(l, smallest) {
			smallest = l
		}
		if r < len(s) && s.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}
