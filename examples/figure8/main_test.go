package main

import (
	"testing"

	"gsdram/internal/imdb"
	"gsdram/internal/sim"
)

// TestFigure8 checks the paper's Figure 8 claim on the simulated Table 1
// system: the plain loop reads 512 lines from DRAM, the pattload loop 64,
// and both compute the column's closed-form sum. The cycle counts pin
// today's timing; a change to them must be explained.
func TestFigure8(t *testing.T) {
	wantSum := imdb.ExpectedColumnSum(objects, 0)
	if wantSum != 1_308_160 {
		t.Fatalf("closed-form sum = %d, want 1308160", wantSum)
	}
	for _, tc := range []struct {
		name      string
		optimised bool
		lines     uint64
		cycles    sim.Cycle
	}{
		{"before", false, 512, 51_556},
		{"after", true, 64, 8_924},
	} {
		got := runLoop(tc.optimised)
		if got.sum != wantSum {
			t.Errorf("%s: sum = %d, want %d", tc.name, got.sum, wantSum)
		}
		if got.lines != tc.lines {
			t.Errorf("%s: %d cache lines from DRAM, want %d", tc.name, got.lines, tc.lines)
		}
		if got.cycles != tc.cycles {
			t.Errorf("%s: %d cycles, want %d", tc.name, got.cycles, tc.cycles)
		}
	}
}
