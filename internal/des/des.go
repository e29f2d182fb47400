// Package des implements a discrete-event simulation kernel: a virtual
// clock, a cancellable event queue, and a run loop. It is the substrate
// for every simulator in this repository.
//
// An event is a Handler call scheduled at an absolute or relative
// virtual time. A Handler is an ordinary func(*Simulator, int) that its
// owner binds once; the int argument carries the event's payload (the
// e-commerce model passes a job index), so scheduling an event
// allocates nothing. Events live in an arena of reusable slots owned by
// the simulator, ordered by a typed binary heap of (time, seq) entries.
//
// Scheduling returns an Event handle: a slot index stamped with the
// slot's generation. While the event is pending the handle cancels or
// reschedules it, which the e-commerce model uses to push back in-flight
// service completions when a garbage-collection stall occurs. Once the
// event fires or is cancelled its slot's generation moves on, so a stale
// handle refers to nothing even after the slot is reused.
package des

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"

	"rejuv/internal/journal"
	"rejuv/internal/num"
)

// Handler is the callback invoked when an event fires. The simulator
// passes itself so handlers can schedule follow-up events, and the arg
// given when the event was scheduled.
type Handler func(sim *Simulator, arg int)

// Event is a handle to a scheduled event. The zero Event refers to no
// event; Pending reports false for it and Cancel ignores it.
type Event struct {
	id  uint32 // slot index + 1; 0 in the zero handle
	gen uint32 // the slot's generation when the event was scheduled
}

// slot is one arena cell. A live slot holds the event's handler, its
// argument and its position in the heap; a free slot links to the next
// free one, so releasing a slot never grows a slice.
type slot struct {
	handler Handler
	arg     int
	pos     int    // index in Simulator.heap while live
	gen     uint32 // bumped on release, invalidating outstanding handles
	next    uint32 // free list: index + 1 of the next free slot, 0 at the end
}

// entry is one heap element. (time, seq) is a total order — seq is
// unique per schedule or reschedule — so any correct heap pops the
// same sequence.
type entry struct {
	time float64
	seq  uint64 // tie-breaker: FIFO among same-time events
	slot uint32
}

// before reports whether a fires before b.
func (a *entry) before(b *entry) bool {
	return a.time < b.time || (num.Same(a.time, b.time) && a.seq < b.seq)
}

// timeError is the panic value for an event placed before the current
// time, which is always a modeling bug. It formats only when printed,
// so the scheduling path stays allocation-free.
type timeError struct {
	op      string
	at, now float64
}

func (e timeError) Error() string {
	return fmt.Sprintf("des: %s at %v before now (%v)", e.op, e.at, e.now)
}

// Simulator owns the virtual clock and the event queue. The zero value is
// a simulator at time zero with an empty queue, ready to use.
type Simulator struct {
	now     float64
	seq     uint64
	heap    []entry
	slots   []slot
	free    uint32 // index + 1 of the first free slot, 0 when none
	stopped bool
	met     *simMetrics     // nil unless Instrument was called
	jw      *journal.Writer // nil unless Journal was called
}

// New returns a simulator at virtual time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() float64 { return s.now }

// Len returns the number of pending events.
func (s *Simulator) Len() int { return len(s.heap) }

// live returns the slot of e while e is pending, or nil.
func (s *Simulator) live(e Event) *slot {
	if e.id == 0 || int(e.id) > len(s.slots) {
		return nil
	}
	sl := &s.slots[e.id-1]
	if sl.gen != e.gen {
		return nil
	}
	return sl
}

// Pending reports whether e is still queued (not fired, not cancelled).
func (s *Simulator) Pending(e Event) bool { return s.live(e) != nil }

// Time returns the virtual time at which e is scheduled to fire, or NaN
// when e is not pending.
func (s *Simulator) Time(e Event) float64 {
	sl := s.live(e)
	if sl == nil {
		return math.NaN()
	}
	return s.heap[sl.pos].time
}

// ScheduleAt schedules h(sim, arg) to run at absolute virtual time t. It
// panics if t precedes the current time or is NaN, since scheduling into
// the past is always a modeling bug.
func (s *Simulator) ScheduleAt(t float64, h Handler, arg int) Event {
	if math.IsNaN(t) || t < s.now {
		panic(timeError{"ScheduleAt", t, s.now})
	}
	i := s.alloc()
	sl := &s.slots[i]
	sl.handler, sl.arg = h, arg
	s.push(entry{time: t, seq: s.seq, slot: i})
	s.seq++
	s.noteScheduled()
	s.journalScheduled(t)
	return Event{id: i + 1, gen: sl.gen}
}

// Schedule schedules h(sim, arg) to run after the given non-negative
// delay.
func (s *Simulator) Schedule(delay float64, h Handler, arg int) Event {
	if math.IsNaN(delay) || delay < 0 {
		panic(timeError{"Schedule", s.now + delay, s.now})
	}
	return s.ScheduleAt(s.now+delay, h, arg)
}

// Cancel removes a pending event from the queue. Cancelling an event that
// already fired or was already cancelled, or the zero Event, is a no-op,
// so callers need not track event lifecycles precisely.
func (s *Simulator) Cancel(e Event) {
	sl := s.live(e)
	if sl == nil {
		return
	}
	s.remove(sl.pos)
	s.release(e.id - 1)
	s.noteCancelled()
	s.journalCancelled()
}

// Reschedule moves a pending event to absolute time t, keeping its
// handler and argument. The event takes a fresh sequence number, so it
// fires after every event already queued for t. It panics if t precedes
// the current time, or if e is not pending: requeueing a fired or
// cancelled event would resurrect a handle its owner already dropped.
func (s *Simulator) Reschedule(e Event, t float64) {
	if math.IsNaN(t) || t < s.now {
		panic(timeError{"Reschedule", t, s.now})
	}
	sl := s.live(e)
	if sl == nil {
		panic("des: Reschedule of an event that is not pending")
	}
	en := &s.heap[sl.pos]
	en.time = t
	en.seq = s.seq
	s.seq++
	s.fix(sl.pos)
}

// Stop makes the current Run call return after the executing handler
// completes. Pending events remain queued.
func (s *Simulator) Stop() { s.stopped = true }

// Step fires the next pending event, advancing the clock to its time.
// It returns false when no events are pending. Step is the kernel's
// inner loop: everything it reaches (heap, arena, metrics, journaling)
// must stay allocation-free so event throughput is bounded by the
// handlers alone.
//
//lint:hotpath
func (s *Simulator) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	top := s.heap[0]
	s.remove(0)
	if top.time < s.now {
		panic(timeError{"Step", top.time, s.now})
	}
	s.now = top.time
	sl := &s.slots[top.slot]
	h, arg := sl.handler, sl.arg
	// Release before firing so a handler that schedules its successor
	// reuses this slot.
	s.release(top.slot)
	s.noteFired()
	s.journalFired()
	h(s, arg)
	return true
}

// alloc takes a slot from the free list, growing the arena when it is
// empty, and returns its index.
func (s *Simulator) alloc() uint32 {
	if s.free != 0 {
		i := s.free - 1
		s.free = s.slots[i].next
		return i
	}
	s.slots = append(s.slots, slot{}) //lint:allow hotpath the arena grows to the peak pending count, then recycles slots (pinned by TestScheduleFireDoesNotAllocate)
	return uint32(len(s.slots) - 1)
}

// release returns slot i to the free list and invalidates its handles.
func (s *Simulator) release(i uint32) {
	sl := &s.slots[i]
	sl.handler = nil // let the handler's captures go
	sl.gen++
	sl.next = s.free
	s.free = i + 1
}

// push adds e to the heap.
func (s *Simulator) push(e entry) {
	s.heap = append(s.heap, e) //lint:allow hotpath the heap grows to the peak pending count, then reuses its array (pinned by TestScheduleFireDoesNotAllocate)
	s.up(len(s.heap) - 1)
}

// remove deletes the heap entry at position i.
func (s *Simulator) remove(i int) {
	last := len(s.heap) - 1
	s.heap[i] = s.heap[last]
	s.heap = s.heap[:last]
	if i < last {
		s.fix(i)
	}
}

// fix restores heap order after the entry at position i changed.
func (s *Simulator) fix(i int) {
	if i > 0 && s.heap[i].before(&s.heap[(i-1)/2]) {
		s.up(i)
	} else {
		s.down(i)
	}
}

// up sifts the entry at position i toward the root, moving the entries
// it passes down instead of swapping, and records every new position.
func (s *Simulator) up(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		s.slots[h[i].slot].pos = i
		i = p
	}
	h[i] = e
	s.slots[e.slot].pos = i
}

// down sifts the entry at position i toward the leaves.
func (s *Simulator) down(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		s.slots[h[i].slot].pos = i
		i = c
	}
	h[i] = e
	s.slots[e.slot].pos = i
}

// eventLoopLabels tags the run loop in CPU profiles so samples inside
// Run/RunUntil (and everything the handlers call, detector evaluation
// included) can be filtered with `-tagfocus des_phase=event-loop`.
var eventLoopLabels = pprof.Labels("des_phase", "event-loop")

// Run fires events in time order until the queue drains or Stop is
// called. It returns the number of events fired.
func (s *Simulator) Run() int {
	s.stopped = false
	fired := 0
	pprof.Do(context.Background(), eventLoopLabels, func(context.Context) {
		for !s.stopped && s.Step() {
			fired++
		}
	})
	return fired
}

// RunUntil fires events with time <= horizon, then advances the clock to
// horizon. Events scheduled beyond the horizon remain queued. It returns
// the number of events fired.
func (s *Simulator) RunUntil(horizon float64) int {
	s.stopped = false
	fired := 0
	pprof.Do(context.Background(), eventLoopLabels, func(context.Context) {
		for !s.stopped && len(s.heap) > 0 && s.heap[0].time <= horizon {
			s.Step()
			fired++
		}
	})
	if !s.stopped && s.now < horizon {
		s.now = horizon
	}
	return fired
}
