package bench

import (
	"testing"

	"gsdram/internal/imdb"
)

// TestCrossExperimentRepeats pins which table cells of different
// experiments are the same simulation: identical cycles and DRAM reads
// (or throughput) at quick scale, because the rigs, streams and
// configurations are identical. A run-level fold may merge exactly these
// and nothing else. pattbits' 0-bit row is the counterexample: it reads
// as many lines as fig10's Row Store prefetch cell, on another table,
// and takes a few more cycles, so the two only round to the same printed
// Mcycles.
func TestCrossExperimentRepeats(t *testing.T) {
	opts := QuickOptions()
	f10, err := RunFig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	f11, err := RunFig11(opts)
	if err != nil {
		t.Fatal(err)
	}
	imp, err := RunImpulse(opts)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := RunPatternSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := RunAutoGather(opts)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := RunSchedulerAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Fig10Result.Points: 0 is {1 column, no prefetch}, 2 is {1 column,
	// prefetch}.
	if f10.Points[0] != (Fig10Point{1, false}) || f10.Points[2] != (Fig10Point{1, true}) {
		t.Fatalf("fig10 points reordered: %v", f10.Points)
	}
	gsPref, gsPlain := f10.Runs[imdb.GSStore][2], f10.Runs[imdb.GSStore][0]
	rowPref := f10.Runs[imdb.RowStore][2]

	same := []struct {
		name      string
		got, want uint64
	}{
		{"impulse GS-DRAM cycles = fig10 GS 1col prefetch", imp.Cycles[0], gsPref.Cycles},
		{"impulse GS-DRAM reads = fig10 GS 1col prefetch", imp.LineReads[0], gsPref.Ctrl.ReadsServed},
		{"pattbits p3 cycles = fig10 GS 1col prefetch", pb.Cycles[3], gsPref.Cycles},
		{"pattbits p3 reads = fig10 GS 1col prefetch", pb.LineReads[3], gsPref.Ctrl.ReadsServed},
		{"autogather pattload cycles = fig10 GS 1col", ag.Cycles[0], gsPlain.Cycles},
		{"autogather pattload reads = fig10 GS 1col", ag.LineReads[0], gsPlain.Mem.DRAMReads},
		{"schedpol Table-1 scan cycles = fig10 GS 1col", sp.Cycles[0][0], gsPlain.Cycles},
		{"pattbits p0 reads = fig10 Row 1col prefetch", pb.LineReads[0], rowPref.Ctrl.ReadsServed},
	}
	for _, c := range same {
		if c.got != c.want {
			t.Errorf("%s: %d vs %d", c.name, c.got, c.want)
		}
	}
	if got, want := sp.HTAPThroughput[0], f11.TxnThroughput[imdb.GSStore][1]; got != want {
		t.Errorf("schedpol Table-1 HTAP throughput = fig11 GS prefetch: %v vs %v", got, want)
	}
	if pb.Cycles[0] == rowPref.Cycles {
		t.Errorf("pattbits p0 now takes exactly fig10 Row 1col prefetch's %d cycles; fold it too", rowPref.Cycles)
	}
}
