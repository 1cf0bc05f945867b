package main

import (
	"strings"
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/dram"
	"gsdram/internal/memctrl"
	"gsdram/internal/sim"
)

// record runs a workload against a controller and returns its commands.
func record(t *testing.T, work func(c *memctrl.Controller, q *sim.EventQueue)) []memctrl.CommandEvent {
	t.Helper()
	events, _, err := capture(work)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func addr(bank, row, col int) addrmap.Addr {
	return addrmap.Default.Compose(addrmap.Loc{Bank: bank, Row: row, Col: col})
}

func streamReads(n int) func(c *memctrl.Controller, q *sim.EventQueue) {
	return func(c *memctrl.Controller, q *sim.EventQueue) {
		for i := 0; i < n; i++ {
			a := addr(i%2, 10, i%128)
			q.Schedule(sim.Cycle(i*50), func(now sim.Cycle) {
				c.Enqueue(now, &memctrl.Request{Addr: a})
			})
		}
	}
}

func TestCaptureKeepsIssueOrder(t *testing.T) {
	events := record(t, streamReads(20))
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("events out of order")
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(record(t, streamReads(40)))
	if s.Commands == 0 || s.Span == 0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.CmdCounts[dram.CmdRD] != 40 {
		t.Fatalf("RD count = %d, want 40", s.CmdCounts[dram.CmdRD])
	}
	// Two banks used, one row each: exactly 2 ACTs, high row-hit rate.
	if s.CmdCounts[dram.CmdACT] != 2 {
		t.Fatalf("ACT count = %d, want 2", s.CmdCounts[dram.CmdACT])
	}
	if s.RowHitRate < 0.9 {
		t.Fatalf("row-hit rate %.2f, want ~0.95", s.RowHitRate)
	}
	if len(s.PerBank) != 2 {
		t.Fatalf("banks = %d, want 2", len(s.PerBank))
	}
	if s.Patterned != 0 {
		t.Fatal("no patterned reads were issued")
	}
}

// TestSummarizeTracksOpenRow pins the open-row heuristic on a synthetic
// stream: interleaved ACTs to other banks must not disturb a bank's open
// row, the first column command after an ACT is the miss that ACT was
// issued for, and REF closes every row on the rank.
func TestSummarizeTracksOpenRow(t *testing.T) {
	ev := func(kind dram.CmdKind, bank, row int) memctrl.CommandEvent {
		return memctrl.CommandEvent{Bank: bank, Row: row, Kind: kind}
	}
	events := []memctrl.CommandEvent{
		ev(dram.CmdACT, 0, 5),
		ev(dram.CmdRD, 0, 5), // miss: consumes bank 0's ACT
		ev(dram.CmdACT, 1, 9),
		ev(dram.CmdRD, 0, 5), // hit: bank 1's ACT is irrelevant to bank 0
		ev(dram.CmdRD, 1, 9), // miss: consumes bank 1's ACT
		ev(dram.CmdPRE, 0, 0),
		ev(dram.CmdACT, 0, 7),
		ev(dram.CmdWR, 0, 7), // miss: row conflict reopened bank 0
		ev(dram.CmdREF, 0, 0),
		ev(dram.CmdACT, 0, 7),
		ev(dram.CmdRD, 0, 7), // miss: REF precharged the rank
	}
	s := Summarize(events)
	if s.RowHits != 1 {
		t.Fatalf("RowHits = %d, want 1", s.RowHits)
	}
	if want := 1.0 / 5.0; s.RowHitRate != want {
		t.Fatalf("RowHitRate = %v, want %v", s.RowHitRate, want)
	}
}

// TestSummarizeMidStreamConservative: a stream captured mid-run (no ACT
// seen for the bank) classifies the first column command as a miss —
// the row it hit in is unknown — and only then starts tracking.
func TestSummarizeMidStreamConservative(t *testing.T) {
	events := []memctrl.CommandEvent{
		{Bank: 0, Row: 5, Kind: dram.CmdRD},
		{Bank: 0, Row: 5, Kind: dram.CmdRD},
		{Bank: 0, Row: 5, Kind: dram.CmdRD},
	}
	if s := Summarize(events); s.RowHits != 2 {
		t.Fatalf("RowHits = %d, want 2 (first access is unknown-row)", s.RowHits)
	}
}

// crossCheck runs a workload against the real controller and compares
// the trace heuristic's row-hit count with the controller's own
// accounting. The controller attributes hit/miss per request (did the
// scheduler issue an ACT/PRE on its behalf); the heuristic classifies
// per command stream (first column command after each row opening).
func crossCheck(t *testing.T, n int, write func(i int) bool) (Summary, memctrl.Stats) {
	t.Helper()
	// Bursts across 4 banks with a rotating row per bank: streaks of
	// same-row accesses punctuated by row conflicts.
	events, c, err := capture(func(c *memctrl.Controller, q *sim.EventQueue) {
		for i := 0; i < n; i++ {
			a := addr(i%4, 10+(i/24)%3, (i*7)%128)
			w := write(i)
			q.Schedule(sim.Cycle(i*30), func(now sim.Cycle) {
				c.Enqueue(now, &memctrl.Request{Addr: a, Write: w})
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// The channel scheduler keeps ticking while any queue is non-empty,
	// so one Run drains everything, posted writes included.
	if c.Pending() {
		t.Fatal("controller still has queued requests after Run")
	}

	s := Summarize(events)
	st := c.Stats()
	if colCmds := s.CmdCounts[dram.CmdRD] + s.CmdCounts[dram.CmdWR]; colCmds != st.ReadsServed+st.WritesServed-st.Forwards {
		t.Fatalf("observed %d column commands, controller served %d", colCmds, st.ReadsServed+st.WritesServed-st.Forwards)
	}
	if st.RowMissReads+st.RowMissWrites == 0 || st.RowHitReads+st.RowHitWrites == 0 {
		t.Fatal("workload must exercise both hits and misses for the cross-check to mean anything")
	}
	return s, st
}

// TestSummarizeRowHitsCrossCheckReads: with reads only, FR-FCFS serves
// same-row requests oldest-first, so the request that opened a row is
// always the first to access it — the per-request and per-stream views
// coincide and the counts must match exactly.
func TestSummarizeRowHitsCrossCheckReads(t *testing.T) {
	s, st := crossCheck(t, 400, func(int) bool { return false })
	if got, want := s.RowHits, st.RowHitReads; got != want {
		t.Fatalf("heuristic RowHits = %d, controller RowHitReads = %d (misses %d)",
			got, want, st.RowMissReads)
	}
}

// TestSummarizeRowHitsCrossCheckWrites: with writes mixed in, a row-hit
// write can drain ahead of the read whose ACT opened the row; if a
// conflict then closes the row before that read issues, one
// controller-miss spans two row openings. The two views may therefore
// differ by a few counts, but must stay within a tight bound.
func TestSummarizeRowHitsCrossCheckWrites(t *testing.T) {
	s, st := crossCheck(t, 400, func(i int) bool { return i%3 == 2 })
	got := float64(s.RowHits)
	want := float64(st.RowHitReads + st.RowHitWrites)
	colCmds := float64(st.ReadsServed + st.WritesServed - st.Forwards)
	if diff := got - want; diff > colCmds/50 || diff < -colCmds/50 {
		t.Fatalf("heuristic RowHits = %v, controller hits = %v: differ by more than 2%% of %v column commands",
			got, want, colCmds)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Commands != 0 || s.RowHitRate != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummaryCountsPatterned(t *testing.T) {
	s := Summarize(record(t, func(c *memctrl.Controller, q *sim.EventQueue) {
		q.Schedule(0, func(now sim.Cycle) {
			c.Enqueue(now, &memctrl.Request{Addr: addr(0, 1, 0), Pattern: 7})
			c.Enqueue(now, &memctrl.Request{Addr: addr(0, 1, 8)})
		})
	}))
	if s.Patterned != 1 {
		t.Fatalf("patterned = %d, want 1", s.Patterned)
	}
}

func TestSummaryTable(t *testing.T) {
	out := Summarize(record(t, streamReads(10))).Table().String()
	if !strings.Contains(out, "row-hit rate") || !strings.Contains(out, "ch0/rk0/ba0") {
		t.Fatalf("table malformed:\n%s", out)
	}
}

func TestTimeline(t *testing.T) {
	evs := record(t, streamReads(10))
	out := Timeline(evs, 0, evs[len(evs)-1].At+1, 20)
	if !strings.Contains(out, "A") || !strings.Contains(out, "R") {
		t.Fatalf("timeline missing commands:\n%s", out)
	}
	if !strings.Contains(out, "cycles/column") {
		t.Fatal("timeline header missing")
	}
	// Degenerate windows are safe.
	if Timeline(evs, 10, 10, 5) != "" {
		t.Fatal("empty window not empty")
	}
	if Timeline(evs, 100, 10, 5) != "" {
		t.Fatal("inverted window not empty")
	}
	if Timeline(evs, 0, 100, 0) != "" {
		t.Fatal("zero step not empty")
	}
}

// TestTimelineStepLargerThanSpan: a step wider than the whole window
// collapses the chart to a single column.
func TestTimelineStepLargerThanSpan(t *testing.T) {
	evs := record(t, streamReads(10))
	span := evs[len(evs)-1].At + 1
	out := Timeline(evs, 0, span, span*10)
	if out == "" {
		t.Fatal("single-column timeline is empty")
	}
	if strings.Contains(out, "truncated") {
		t.Fatalf("one column is not a truncation:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n")[1:] {
		cells := strings.Fields(line)
		if len(cells) != 2 || len(cells[1]) != 1 {
			t.Fatalf("lane not collapsed to one column: %q", line)
		}
	}
}

func TestTimelineCapsColumns(t *testing.T) {
	evs := record(t, streamReads(10))
	out := Timeline(evs, 0, 1_000_000, 1)
	for _, line := range strings.Split(out, "\n") {
		if len(line) > 250 {
			t.Fatalf("timeline line too wide: %d chars", len(line))
		}
	}
	if !strings.Contains(out, "(window truncated to 200 columns)") {
		t.Fatalf("truncated timeline does not say so in the header:\n%s",
			strings.SplitN(out, "\n", 2)[0])
	}
	// An untruncated window must not carry the warning.
	if full := Timeline(evs, 0, 1_000_000, 5_000); strings.Contains(full, "truncated") {
		t.Fatal("untruncated timeline claims truncation")
	}
}
