package dram

import (
	"testing"

	"gsdram/internal/sim"
)

// scaled DDR3-1600 timing at a 4 GHz core (ratio 5).
func testTiming() Timing { return DDR3_1600().Scaled(5) }

func newTestRank() *Rank { return NewRank(8, testTiming(), 5) }

func TestScaled(t *testing.T) {
	base := DDR3_1600()
	s := base.Scaled(5)
	if s.CL != base.CL*5 || s.TRCD != base.TRCD*5 || s.TRFC != base.TRFC*5 || s.TREF != base.TREF*5 {
		t.Fatalf("Scaled(5) mismatch: %+v", s)
	}
}

// TestSpeedGradesMonotone checks the plausibility of the one speed grade
// the simulator models, DDR3-1600, in nanoseconds (cycles x tCK).
func TestSpeedGradesMonotone(t *testing.T) {
	g, tck := DDR3_1600(), 1.25
	if g.CL <= 0 || g.TRCD <= 0 || g.TRP <= 0 || g.TRAS <= g.TRCD || g.TRC < g.TRAS+g.TRP {
		t.Errorf("DDR3-1600 timing implausible: %+v", g)
	}
	if ns := float64(g.TRCD) * tck; ns < 12 || ns > 15 {
		t.Errorf("DDR3-1600 tRCD = %.2f ns, outside the 12-15 ns device range", ns)
	}
}

func TestCmdKindString(t *testing.T) {
	want := map[CmdKind]string{CmdACT: "ACT", CmdPRE: "PRE", CmdRD: "RD", CmdWR: "WR", CmdREF: "REF", CmdKind(9): "???"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestFirstACTIssuesImmediately(t *testing.T) {
	r := newTestRank()
	if got := r.EarliestIssue(CmdACT, 0, 0); got != 0 {
		t.Fatalf("first ACT earliest = %d, want 0 (no phantom tRRD/tFAW at start)", got)
	}
}

func TestRowHitReadLatency(t *testing.T) {
	r := newTestRank()
	tm := testTiming()
	at := r.EarliestIssue(CmdACT, 0, 0)
	rdReady := r.Issue(CmdACT, 0, 42, at)
	if rdReady != at+sim.Cycle(tm.TRCD) {
		t.Fatalf("ACT ready time = %d, want tRCD = %d", rdReady, tm.TRCD)
	}
	if r.OpenRow(0) != 42 {
		t.Fatalf("open row = %d, want 42", r.OpenRow(0))
	}
	rt := r.EarliestIssue(CmdRD, 0, rdReady)
	dataEnd := r.Issue(CmdRD, 0, 42, rt)
	want := rt + sim.Cycle(tm.CL) + sim.Cycle(tm.TBL)
	if dataEnd != want {
		t.Fatalf("read data end = %d, want %d", dataEnd, want)
	}
}

func TestReadBeforeRCDBlocked(t *testing.T) {
	r := newTestRank()
	tm := testTiming()
	r.Issue(CmdACT, 0, 1, 0)
	if got := r.EarliestIssue(CmdRD, 0, 0); got != sim.Cycle(tm.TRCD) {
		t.Fatalf("RD after ACT earliest = %d, want tRCD = %d", got, tm.TRCD)
	}
}

func TestPrechargeRespectsTRAS(t *testing.T) {
	r := newTestRank()
	tm := testTiming()
	r.Issue(CmdACT, 0, 1, 0)
	if got := r.EarliestIssue(CmdPRE, 0, 0); got != sim.Cycle(tm.TRAS) {
		t.Fatalf("PRE earliest = %d, want tRAS = %d", got, tm.TRAS)
	}
}

func TestRowCycleTRC(t *testing.T) {
	r := newTestRank()
	tm := testTiming()
	r.Issue(CmdACT, 0, 1, 0)
	pre := r.EarliestIssue(CmdPRE, 0, 0)
	r.Issue(CmdPRE, 0, 0, pre)
	act2 := r.EarliestIssue(CmdACT, 0, 0)
	// Second ACT must respect both tRP after PRE and tRC after first ACT.
	if act2 < pre+sim.Cycle(tm.TRP) || act2 < sim.Cycle(tm.TRC) {
		t.Fatalf("second ACT at %d violates tRP (%d) or tRC (%d)", act2, pre+sim.Cycle(tm.TRP), tm.TRC)
	}
}

func TestTCCDBetweenReads(t *testing.T) {
	r := newTestRank()
	tm := testTiming()
	r.Issue(CmdACT, 0, 1, 0)
	rd1 := r.EarliestIssue(CmdRD, 0, 0)
	r.Issue(CmdRD, 0, 1, rd1)
	rd2 := r.EarliestIssue(CmdRD, 0, rd1)
	if rd2 != rd1+sim.Cycle(tm.TCCD) {
		t.Fatalf("back-to-back reads spaced %d, want tCCD = %d", rd2-rd1, tm.TCCD)
	}
}

func TestTRRDBetweenBanks(t *testing.T) {
	r := newTestRank()
	tm := testTiming()
	r.Issue(CmdACT, 0, 1, 0)
	act2 := r.EarliestIssue(CmdACT, 1, 0)
	if act2 != sim.Cycle(tm.TRRD) {
		t.Fatalf("cross-bank ACT spacing %d, want tRRD = %d", act2, tm.TRRD)
	}
}

func TestFourActivateWindow(t *testing.T) {
	r := newTestRank()
	tm := testTiming()
	var at sim.Cycle
	for b := 0; b < 4; b++ {
		at = r.EarliestIssue(CmdACT, b, at)
		r.Issue(CmdACT, b, 1, at)
	}
	fifth := r.EarliestIssue(CmdACT, 4, at)
	first := sim.Cycle(0)
	if fifth < first+sim.Cycle(tm.TFAW) {
		t.Fatalf("5th ACT at %d violates tFAW window ending %d", fifth, first+sim.Cycle(tm.TFAW))
	}
}

func TestWriteToReadTurnaround(t *testing.T) {
	r := newTestRank()
	tm := testTiming()
	r.Issue(CmdACT, 0, 1, 0)
	wr := r.EarliestIssue(CmdWR, 0, 0)
	wrEnd := r.Issue(CmdWR, 0, 1, wr)
	rd := r.EarliestIssue(CmdRD, 0, wr)
	if rd < wrEnd+sim.Cycle(tm.TWTR) {
		t.Fatalf("read after write at %d, want >= %d (tWTR)", rd, wrEnd+sim.Cycle(tm.TWTR))
	}
}

func TestWriteRecoveryBeforePrecharge(t *testing.T) {
	r := newTestRank()
	tm := testTiming()
	r.Issue(CmdACT, 0, 1, 0)
	wr := r.EarliestIssue(CmdWR, 0, 0)
	wrEnd := r.Issue(CmdWR, 0, 1, wr)
	pre := r.EarliestIssue(CmdPRE, 0, wr)
	if pre < wrEnd+sim.Cycle(tm.TWR) {
		t.Fatalf("PRE after write at %d, want >= %d (tWR)", pre, wrEnd+sim.Cycle(tm.TWR))
	}
}

func TestRefreshRequiresAllPrecharged(t *testing.T) {
	r := newTestRank()
	r.Issue(CmdACT, 3, 7, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("REF with open bank did not panic")
		}
	}()
	r.Issue(CmdREF, 0, 0, 1000)
}

func TestRefreshBlocksActivates(t *testing.T) {
	r := newTestRank()
	tm := testTiming()
	end := r.Issue(CmdREF, 0, 0, 100)
	if end != 100+sim.Cycle(tm.TRFC) {
		t.Fatalf("REF end = %d, want %d", end, 100+sim.Cycle(tm.TRFC))
	}
	for b := 0; b < 8; b++ {
		if got := r.EarliestIssue(CmdACT, b, 100); got < end {
			t.Fatalf("bank %d ACT allowed at %d during refresh (ends %d)", b, got, end)
		}
	}
}

func TestProtocolViolationsPanic(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Rank)
	}{
		{"ACT on open bank", func(r *Rank) { r.Issue(CmdACT, 0, 1, 0); r.Issue(CmdACT, 0, 2, 500) }},
		{"PRE on closed bank", func(r *Rank) { r.Issue(CmdPRE, 0, 0, 0) }},
		{"RD on closed bank", func(r *Rank) { r.Issue(CmdRD, 0, 0, 0) }},
		{"WR on closed bank", func(r *Rank) { r.Issue(CmdWR, 0, 0, 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", c.name)
				}
			}()
			c.fn(newTestRank())
		})
	}
}

func TestStatsCounting(t *testing.T) {
	r := newTestRank()
	r.Issue(CmdACT, 0, 1, 0)
	rd := r.EarliestIssue(CmdRD, 0, 0)
	r.Issue(CmdRD, 0, 1, rd)
	wr := r.EarliestIssue(CmdWR, 0, rd)
	r.Issue(CmdWR, 0, 1, wr)
	pre := r.EarliestIssue(CmdPRE, 0, wr)
	r.Issue(CmdPRE, 0, 0, pre)
	s := r.Stats()
	if s.ACTs != 1 || s.Reads != 1 || s.Writes != 1 || s.PREs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BusBusy == 0 {
		t.Fatal("bus busy not accounted")
	}
}

func TestAnyBankOpen(t *testing.T) {
	r := newTestRank()
	if r.AnyBankOpen() {
		t.Fatal("fresh rank reports open bank")
	}
	r.Issue(CmdACT, 2, 5, 0)
	if !r.AnyBankOpen() {
		t.Fatal("open bank not reported")
	}
	pre := r.EarliestIssue(CmdPRE, 2, 0)
	r.Issue(CmdPRE, 2, 0, pre)
	if r.AnyBankOpen() {
		t.Fatal("bank still open after PRE")
	}
}

func TestCommandBusSerialisation(t *testing.T) {
	r := newTestRank()
	r.Issue(CmdACT, 0, 1, 0)
	// The very next command on the bus cannot issue in the same bus cycle.
	if got := r.EarliestIssue(CmdACT, 1, 0); got < 5 {
		t.Fatalf("second command at %d, want >= 5 (command bus)", got)
	}
}
