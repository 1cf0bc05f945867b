package memctrl

import (
	"testing"

	"gsdram/internal/sim"
)

func newPolicyHarness(t *testing.T, sched SchedPolicy, row RowPolicy) *harness {
	t.Helper()
	q := &sim.EventQueue{}
	cfg := DefaultConfig()
	cfg.Sched = sched
	cfg.Row = row
	c, err := New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{q: q, c: c}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyFRFCFS.String() != "FR-FCFS" || PolicyFCFS.String() != "FCFS" || SchedPolicy(9).String() != "unknown" {
		t.Error("sched policy names wrong")
	}
	if OpenRow.String() != "open-row" || ClosedRow.String() != "closed-row" || RowPolicy(9).String() != "unknown" {
		t.Error("row policy names wrong")
	}
}

func TestDefaultConfigIsPaperPolicy(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Sched != PolicyFRFCFS || cfg.Row != OpenRow {
		t.Fatalf("default policies = %v/%v, want FR-FCFS/open-row (Table 1)", cfg.Sched, cfg.Row)
	}
}

// TestFCFSDoesNotReorder mirrors TestFRFCFSPrioritisesRowHits: under
// strict FCFS the earlier conflicting request must finish first.
func TestFCFSDoesNotReorder(t *testing.T) {
	h := newPolicyHarness(t, PolicyFCFS, OpenRow)
	h.read(0, addr(0, 100, 0))
	dConf := h.read(10, addr(0, 200, 0))
	dHit := h.read(11, addr(0, 100, 7))
	h.q.Run()
	if !(*dConf < *dHit) {
		t.Fatalf("FCFS served hit (%d) before older conflict (%d)", *dHit, *dConf)
	}
}

// TestClosedRowPrecharges verifies the bank closes once its row has no
// queued work.
func TestClosedRowPrecharges(t *testing.T) {
	h := newPolicyHarness(t, PolicyFRFCFS, ClosedRow)
	done := h.read(0, addr(0, 100, 0))
	h.q.Run()
	if *done == 0 {
		t.Fatal("read never completed")
	}
	s := h.c.Stats()
	if s.PREs == 0 {
		t.Fatal("closed-row policy issued no PRE after the burst")
	}
}

// TestClosedRowHelpsRandomConflicts: alternating rows in one bank —
// closed-row hides the precharge, open-row pays tRP on the critical path.
func TestClosedRowHelpsRandomConflicts(t *testing.T) {
	run := func(row RowPolicy) sim.Cycle {
		h := newPolicyHarness(t, PolicyFRFCFS, row)
		var last *sim.Cycle
		for i := 0; i < 10; i++ {
			// Leave a gap so the closed-row PRE can land between requests.
			last = h.read(sim.Cycle(i*500), addr(0, 100+i, 0))
		}
		h.q.Run()
		return *last
	}
	open := run(OpenRow)
	closed := run(ClosedRow)
	if closed >= open {
		t.Fatalf("closed-row (%d) not faster than open-row (%d) on row-conflict traffic", closed, open)
	}
}

// TestOpenRowHelpsStreams: sequential same-row traffic — open-row keeps
// hitting; closed-row policy must not close a row that still has work,
// so with back-to-back arrivals both are similar, but with gaps
// closed-row pays re-activation.
func TestOpenRowHelpsStreams(t *testing.T) {
	run := func(row RowPolicy) sim.Cycle {
		h := newPolicyHarness(t, PolicyFRFCFS, row)
		var last *sim.Cycle
		for i := 0; i < 10; i++ {
			last = h.read(sim.Cycle(i*500), addr(0, 100, i))
		}
		h.q.Run()
		return *last
	}
	open := run(OpenRow)
	closed := run(ClosedRow)
	if open >= closed {
		t.Fatalf("open-row (%d) not faster than closed-row (%d) on streaming traffic", open, closed)
	}
}

// TestClosedRowDoesNotCloseBusyRow: while requests to the open row are
// queued, the bank must stay open.
func TestClosedRowDoesNotCloseBusyRow(t *testing.T) {
	h := newPolicyHarness(t, PolicyFRFCFS, ClosedRow)
	var dones []*sim.Cycle
	for i := 0; i < 8; i++ {
		dones = append(dones, h.read(0, addr(0, 100, i)))
	}
	h.q.Run()
	s := h.c.Stats()
	// All 8 reads of the same row must need exactly one activation.
	if s.ACTs != 1 {
		t.Fatalf("ACTs = %d, want 1 (row closed under queued work)", s.ACTs)
	}
	for i, d := range dones {
		if *d == 0 {
			t.Fatalf("read %d never completed", i)
		}
	}
}

// TestFCFSCompletesEverything is a sanity check that the ablation policy
// still drains mixed traffic.
func TestFCFSCompletesEverything(t *testing.T) {
	h := newPolicyHarness(t, PolicyFCFS, ClosedRow)
	count := 0
	for i := 0; i < 50; i++ {
		a := addr(i%8, 100+i%5, i%128)
		if i%3 == 0 {
			h.write(sim.Cycle(i*20), a)
		} else {
			h.q.Schedule(sim.Cycle(i*20), func(now sim.Cycle) {
				h.c.Enqueue(now, &Request{Addr: a, OnComplete: func(sim.Cycle) { count++ }})
			})
		}
	}
	h.q.Run()
	if h.c.Pending() {
		t.Fatal("requests left pending")
	}
	if count == 0 {
		t.Fatal("no reads completed")
	}
}
