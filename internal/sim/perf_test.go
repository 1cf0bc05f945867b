package sim

import "testing"

// BenchmarkEventQueue measures the schedule/dispatch cycle that dominates
// the discrete-event simulator: a self-rescheduling event chain with a
// small fan-out, mimicking the cpu/memctrl scheduling pattern.
func BenchmarkEventQueue(b *testing.B) {
	q := &EventQueue{}
	fn := func(now Cycle) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Schedule(q.Now()+1, fn)
		q.Schedule(q.Now()+3, fn)
		q.Step()
		q.Step()
	}
}

// BenchmarkEventQueueCancel measures the cancel-heavy pattern of
// memctrl's scheduler wake-ups: every dispatch is preceded by pulling a
// pending wake-up earlier, which cancels it and schedules a new one, in
// a queue holding a few dozen other events.
func BenchmarkEventQueueCancel(b *testing.B) {
	q := &EventQueue{}
	var wake *Event
	wakeFn := func(now Cycle) { wake = nil }
	fn := func(now Cycle) {}
	for i := 0; i < 32; i++ {
		q.Schedule(Cycle(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := q.Now()
		if wake != nil {
			q.Cancel(wake)
		}
		wake = q.Schedule(now+8, wakeFn)
		q.Schedule(now+32, fn)
		q.Step()
	}
}

// TestEventQueueSteadyStateZeroAllocs verifies the free list: once the
// queue has warmed up, a schedule/dispatch cycle reuses Event structs and
// performs no heap allocations.
func TestEventQueueSteadyStateZeroAllocs(t *testing.T) {
	q := &EventQueue{}
	fn := func(now Cycle) {}
	// Warm the free list.
	for i := 0; i < 8; i++ {
		q.Schedule(q.Now()+1, fn)
	}
	q.Run()
	allocs := testing.AllocsPerRun(100, func() {
		q.Schedule(q.Now()+1, fn)
		q.Schedule(q.Now()+3, fn)
		q.Step()
		q.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state EventQueue cycle allocates %v times, want 0", allocs)
	}
	// Cancelling recycles too: a cancel-and-reschedule cycle reuses the
	// cancelled struct.
	allocs = testing.AllocsPerRun(100, func() {
		ev := q.Schedule(q.Now()+5, fn)
		q.Schedule(q.Now()+1, fn)
		q.Cancel(ev)
		q.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state cancel cycle allocates %v times, want 0", allocs)
	}
}

// TestEventRecycling pins the free-list contract: a dispatched event's
// struct may be handed back out by a later Schedule, and Cancel through a
// stale handle of a *reused* struct must not remove the new event.
func TestEventRecycling(t *testing.T) {
	q := &EventQueue{}
	ran := 0
	ev1 := q.Schedule(1, func(now Cycle) { ran++ })
	q.Step()
	ev2 := q.Schedule(2, func(now Cycle) { ran++ })
	if ev1 != ev2 {
		t.Fatalf("expected dispatched event struct to be recycled")
	}
	// ev1 is now a stale alias of ev2; cancelling it cancels the pending
	// event — exactly why holders must drop handles at dispatch.
	q.Run()
	if ran != 2 {
		t.Fatalf("ran %d events, want 2", ran)
	}
}
