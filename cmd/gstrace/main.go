// Command gstrace inspects the GS-DRAM mechanism interactively: it prints
// the shuffled chip layout (Figure 6), per-chip column translation
// (Figure 5), and the gather map (Figure 7) for any GS-DRAM(c,s,p)
// configuration, pattern and column.
//
// Usage:
//
//	gstrace [-chips 8] [-stages 3] [-pbits 3] [-pattern 7] [-col 0] [-cols 8] [-trace]
//
// With no arguments it walks the paper's GS-DRAM(4,2,2) example.
package main

import (
	"flag"
	"fmt"
	"os"

	"gsdram"
	"gsdram/internal/addrmap"
	"gsdram/internal/memctrl"
	"gsdram/internal/sim"
	"gsdram/internal/stats"
)

func main() {
	var (
		chips   = flag.Int("chips", 4, "chips per rank (c)")
		stages  = flag.Int("stages", 2, "shuffling stages (s)")
		pbits   = flag.Int("pbits", 2, "pattern ID bits (p)")
		pattern = flag.Int("pattern", -1, "pattern to trace (-1 = all)")
		col     = flag.Int("col", -1, "column to trace (-1 = all)")
		cols    = flag.Int("cols", 4, "columns in the traced row")
		doTrace = flag.Bool("trace", false, "also run a small gather workload and dump its DRAM command trace")
	)
	flag.Parse()

	p := gsdram.Params{Chips: *chips, ShuffleStages: *stages, PatternBits: *pbits}
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "gstrace:", err)
		os.Exit(1)
	}

	fmt.Printf("GS-DRAM(%d,%d,%d): %d-byte cache lines\n\n", p.Chips, p.ShuffleStages, p.PatternBits, p.LineBytes())

	// Figure 6 view: where each word of each cache line lands.
	layout := stats.NewTable(
		"Shuffled chip layout (Figure 6): cell = columnID.wordIndex stored at (chip, chip column)",
		header(*cols)...)
	for chip := 0; chip < p.Chips; chip++ {
		row := []string{fmt.Sprintf("chip %d", chip)}
		for c := 0; c < *cols; c++ {
			row = append(row, fmt.Sprintf("%d.%d", c, p.WordForChip(chip, c)))
		}
		layout.Add(row...)
	}
	fmt.Println(layout)

	// Figure 5 view: the CTL outputs.
	ctl := stats.NewTable(
		"Column translation (Figure 5): chip column = (chipID & pattern) ^ column",
		chipHeader(p.Chips)...)
	for patt := gsdram.Pattern(0); patt <= p.MaxPattern(); patt++ {
		if *pattern >= 0 && patt != gsdram.Pattern(*pattern) {
			continue
		}
		for c := 0; c < *cols; c++ {
			if *col >= 0 && c != *col {
				continue
			}
			row := []string{fmt.Sprintf("patt %d col %d", patt, c)}
			for chip := 0; chip < p.Chips; chip++ {
				row = append(row, fmt.Sprint(p.CTL(chip, patt, c)))
			}
			ctl.Add(row...)
		}
	}
	fmt.Println(ctl)

	// Figure 7 view: the gathered word sets.
	gather := stats.NewTable(
		"Gather map (Figure 7): logical row-buffer word indices per (pattern, column)",
		"pattern", "column", "words")
	for patt := gsdram.Pattern(0); patt <= p.MaxPattern(); patt++ {
		if *pattern >= 0 && patt != gsdram.Pattern(*pattern) {
			continue
		}
		for c := 0; c < *cols; c++ {
			if *col >= 0 && c != *col {
				continue
			}
			gather.Add(fmt.Sprint(patt), fmt.Sprint(c), fmt.Sprint(p.GatherIndices(patt, c)))
		}
	}
	fmt.Println(gather)

	// READs-per-gather comparison (the reason the shuffle exists).
	fmt.Println(gsdram.AblationMap(p))

	if *doTrace {
		dumpTrace()
	}
}

// dumpTrace runs a short mixed workload (a strided gather stream plus a
// few row-conflicting reads) against the Table 1 controller and prints
// the captured command trace: the command-bus view of GS-DRAM in action.
func dumpTrace() {
	evs, _, err := capture(func(c *memctrl.Controller, q *sim.EventQueue) {
		loc := func(bank, row, col int) addrmap.Addr {
			return addrmap.Default.Compose(addrmap.Loc{Bank: bank, Row: row, Col: col})
		}
		q.Schedule(0, func(now sim.Cycle) {
			// A pattern-7 gather stream in bank 0...
			for i := 0; i < 8; i++ {
				c.Enqueue(now, &memctrl.Request{Addr: loc(0, 100, i*8), Pattern: 7})
			}
			// ...and row-conflicting traffic in bank 1.
			for i := 0; i < 4; i++ {
				c.Enqueue(now, &memctrl.Request{Addr: loc(1, 200+i, 0)})
			}
		})
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gstrace:", err)
		os.Exit(1)
	}

	fmt.Println(Summarize(evs).Table())
	if len(evs) > 0 {
		end := evs[len(evs)-1].At + 1
		fmt.Println(Timeline(evs, 0, end, (end+199)/200))
	}
}

func header(cols int) []string {
	h := []string{""}
	for c := 0; c < cols; c++ {
		h = append(h, fmt.Sprintf("col %d", c))
	}
	return h
}

func chipHeader(chips int) []string {
	h := []string{""}
	for c := 0; c < chips; c++ {
		h = append(h, fmt.Sprintf("chip %d", c))
	}
	return h
}
