// Package sim provides the discrete-event simulation substrate used by the
// GS-DRAM system model: an event queue ordered by simulated time, and a
// deterministic random number generator for reproducible workloads.
//
// All simulated time is expressed in CPU cycles (the finest clock in the
// modelled system). Components that run on slower clocks (e.g. the DDR3
// command bus) convert to CPU cycles at their boundary.
package sim

// Cycle is a point in simulated time, measured in CPU cycles since the
// start of the simulation.
type Cycle uint64

// Event is a callback scheduled to run at a fixed simulated time.
type Event struct {
	When Cycle
	Fn   func(now Cycle)

	index int // position in the heap, -1 when not pending
}

// EventQueue is a priority queue of events ordered by (When, insertion
// order). The zero value is ready to use.
//
// The queue is a binary min-heap over a slice of slots, each holding its
// event's ordering key next to the pointer: sifting compares keys inside
// the slice and dereferences an Event only to record its new position.
// Dispatch order is fully determined by (When, scheduling order), a
// total order, so it does not depend on the heap's shape.
//
// Dispatched and cancelled Event structs are recycled through a free list,
// so a steady-state simulation schedules without allocating. The *Event
// returned by Schedule is therefore only valid as a Cancel handle while
// the event is pending: holders must drop (or nil) their reference once
// the callback has run, as a recycled struct may already describe an
// unrelated later event. Every current caller (e.g. memctrl's scheduler
// wake-up) clears its handle at dispatch.
type EventQueue struct {
	h      []slot
	nextID uint64
	now    Cycle

	// free holds recycled Event structs for reuse by Schedule.
	free []*Event
}

// Now returns the time of the most recently dispatched event.
func (q *EventQueue) Now() Cycle { return q.now }

// PeekWhen returns the timestamp of the earliest pending event — the
// event horizon. A component may simulate forward inline (without
// dispatching events) strictly before this time, because no other actor
// can observe or mutate shared state until the horizon event fires.
// ok is false when the queue is empty (the horizon is infinite).
func (q *EventQueue) PeekWhen() (when Cycle, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].when, true
}

// Advance moves the queue's clock forward to t without dispatching
// anything, so that inline execution's side effects (schedules, clamped
// ready-times) observe the same Now as event-driven execution would.
// Advancing past the event horizon would reorder history and panics.
// Advancing backwards is a no-op.
func (q *EventQueue) Advance(t Cycle) {
	if t <= q.now {
		return
	}
	if len(q.h) > 0 && t > q.h[0].when {
		panic("sim: Advance past the event horizon")
	}
	q.now = t
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// Schedule enqueues fn to run at cycle when. Scheduling in the past (before
// the last dispatched event) is clamped to "now"; discrete-event components
// occasionally compute a ready-time that has already elapsed, and clamping
// preserves causality without burdening every caller.
func (q *EventQueue) Schedule(when Cycle, fn func(now Cycle)) *Event {
	if when < q.now {
		when = q.now
	}
	var ev *Event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		ev.When, ev.Fn = when, fn
	} else {
		ev = &Event{When: when, Fn: fn}
	}
	q.h = append(q.h, slot{})
	q.up(len(q.h)-1, slot{when: when, seq: q.nextID, ev: ev})
	q.nextID++
	return ev
}

// ScheduleAfter enqueues fn to run delta cycles after the current time.
func (q *EventQueue) ScheduleAfter(delta Cycle, fn func(now Cycle)) *Event {
	return q.Schedule(q.now+delta, fn)
}

// Cancel removes a pending event and recycles it. Cancelling an
// already-cancelled event is a no-op; cancelling via a handle whose event
// has already been dispatched is a caller bug (see EventQueue) and is
// detected only when the struct has not yet been reused.
func (q *EventQueue) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 || ev.index >= len(q.h) || q.h[ev.index].ev != ev {
		return
	}
	i := ev.index
	last := q.shrink()
	if i < len(q.h) {
		// The last slot fills the hole: it may belong above or below it.
		q.down(i, last)
		if last.ev.index == i {
			q.up(i, last)
		}
	}
	q.recycle(ev)
}

// recycle returns a no-longer-pending event to the free list.
func (q *EventQueue) recycle(ev *Event) {
	ev.index = -1
	ev.Fn = nil // drop the closure so it can be collected
	q.free = append(q.free, ev)
}

// Step dispatches the earliest pending event. It reports false if the queue
// is empty.
func (q *EventQueue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	ev := q.h[0].ev
	if last := q.shrink(); len(q.h) > 0 {
		q.down(0, last)
	}
	q.now = ev.When
	fn := ev.Fn
	// Recycle before dispatch so fn's own Schedule calls can reuse the
	// struct immediately; fn was captured above.
	q.recycle(ev)
	fn(q.now)
	return true
}

// Run dispatches events until the queue is empty and returns the time of
// the last event.
func (q *EventQueue) Run() Cycle {
	for q.Step() {
	}
	return q.now
}

// RunUntil dispatches events with When <= deadline. It returns true if the
// queue still has pending events beyond the deadline.
func (q *EventQueue) RunUntil(deadline Cycle) bool {
	for len(q.h) > 0 && q.h[0].when <= deadline {
		q.Step()
	}
	return len(q.h) > 0
}

// slot is one heap position: a pending event and its ordering key. seq
// is the event's scheduling order, which breaks ties so that events
// scheduled earlier at the same cycle run first, keeping the simulation
// deterministic.
type slot struct {
	when Cycle
	seq  uint64
	ev   *Event
}

func (a slot) before(b slot) bool {
	return a.when < b.when || a.when == b.when && a.seq < b.seq
}

// shrink removes the heap's last slot and returns it.
func (q *EventQueue) shrink() slot {
	n := len(q.h) - 1
	last := q.h[n]
	q.h[n] = slot{} // drop the pointer
	q.h = q.h[:n]
	return last
}

// up places s at position i or above it, moving each later parent down
// into the hole.
func (q *EventQueue) up(i int, s slot) {
	h := q.h
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = s
	s.ev.index = i
}

// down places s at position i or below it, moving each earlier child up
// into the hole.
func (q *EventQueue) down(i int, s slot) {
	h := q.h
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(s) {
			break
		}
		h[i] = h[c]
		h[i].ev.index = i
		i = c
	}
	h[i] = s
	s.ev.index = i
}
