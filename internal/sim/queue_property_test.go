package sim

import "testing"

// checkQueueOrdering drives an EventQueue through `steps` random
// Schedule/Cancel/Step operations alongside a brute-force reference model
// and verifies the queue's two core contracts:
//
//   - dispatch order is exactly ascending (When, scheduling order), with
//     past schedule times clamped to Now;
//   - the free list never aliases a pending event (an Event struct is
//     either pending in the heap or free, never both), and every pending
//     event's index and time match its heap slot.
func checkQueueOrdering(t *testing.T, seed uint64, steps int) {
	t.Helper()
	rng := NewRand(seed)
	q := &EventQueue{}

	type refEvent struct {
		when Cycle
		id   int
		ev   *Event
	}
	var pending []refEvent // model of the queue, in scheduling order
	nextID := 0
	var got []int // ids in actual dispatch order
	var want []int

	// modelNext returns the index of the model's next event: earliest
	// effective time, scheduling order breaking ties (pending is kept in
	// scheduling order, so the first minimum wins).
	modelNext := func() int {
		best := 0
		for i, r := range pending {
			if r.when < pending[best].when {
				best = i
			}
		}
		return best
	}

	checkFreeList := func() {
		t.Helper()
		for i, ps := range q.h {
			if ps.ev.index != i || ps.when != ps.ev.When {
				t.Fatalf("slot %d (time %d) holds an event with index %d and time %d",
					i, ps.when, ps.ev.index, ps.ev.When)
			}
		}
		for _, fev := range q.free {
			for _, ps := range q.h {
				if fev == ps.ev {
					t.Fatalf("free list aliases pending event (when=%d)", ps.when)
				}
			}
		}
	}

	for i := 0; i < steps; i++ {
		switch rng.Intn(8) {
		case 0, 1, 2, 3: // Schedule, sometimes in the (clamped) past
			w := int(q.Now()) + rng.Intn(40) - 8
			if w < 0 {
				w = 0
			}
			when := Cycle(w)
			eff := when
			if eff < q.Now() {
				eff = q.Now() // Schedule clamps past times to now
			}
			id := nextID
			nextID++
			ev := q.Schedule(when, func(now Cycle) {
				if now != eff {
					t.Fatalf("event %d dispatched at %d, scheduled for %d", id, now, eff)
				}
				got = append(got, id)
			})
			pending = append(pending, refEvent{when: eff, id: id, ev: ev})
		case 4: // Cancel a random pending event
			if len(pending) == 0 {
				continue
			}
			k := rng.Intn(len(pending))
			q.Cancel(pending[k].ev)
			pending = append(pending[:k], pending[k+1:]...)
		default: // Step
			if len(pending) == 0 {
				if q.Step() {
					t.Fatalf("Step dispatched from an empty model")
				}
				continue
			}
			k := modelNext()
			want = append(want, pending[k].id)
			pending = append(pending[:k], pending[k+1:]...)
			if !q.Step() {
				t.Fatalf("Step found empty queue, model has %d pending", len(pending)+1)
			}
		}
		if i%64 == 0 {
			checkFreeList()
		}
		if q.Len() != len(pending) {
			t.Fatalf("queue has %d pending, model has %d", q.Len(), len(pending))
		}
	}
	// Drain the rest in order.
	for len(pending) > 0 {
		k := modelNext()
		want = append(want, pending[k].id)
		pending = append(pending[:k], pending[k+1:]...)
		if !q.Step() {
			t.Fatalf("queue drained before model")
		}
	}
	checkFreeList()

	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d: got event %d, want %d", i, got[i], want[i])
		}
	}
}

// TestEventQueueOrderingProperty runs the randomized ordering property
// over several fixed seeds.
func TestEventQueueOrderingProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		checkQueueOrdering(t, seed, 5000)
	}
}

// FuzzEventQueueOrdering lets the fuzzer hunt for interleavings the fixed
// seeds miss. `go test` runs the seed corpus; `go test -fuzz` explores.
func FuzzEventQueueOrdering(f *testing.F) {
	f.Add(uint64(42))
	f.Add(uint64(0))
	f.Add(uint64(0xDEADBEEF))
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkQueueOrdering(t, seed, 2000)
	})
}
