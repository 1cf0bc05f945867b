package main

import (
	"fmt"
	"sort"
	"strings"

	"gsdram/internal/dram"
	"gsdram/internal/memctrl"
	"gsdram/internal/sim"
	"gsdram/internal/stats"
)

// capture runs work against a Table 1 controller on a fresh event queue
// and returns every DDR command the controller issued, in issue order,
// together with the controller. Summarize and Timeline then give the
// view a logic analyser on the command bus would.
func capture(work func(c *memctrl.Controller, q *sim.EventQueue)) ([]memctrl.CommandEvent, *memctrl.Controller, error) {
	var events []memctrl.CommandEvent
	q := &sim.EventQueue{}
	cfg := memctrl.DefaultConfig()
	cfg.Observer = func(ev memctrl.CommandEvent) { events = append(events, ev) }
	c, err := memctrl.New(cfg, q)
	if err != nil {
		return nil, nil, err
	}
	work(c, q)
	q.Run()
	return events, c, nil
}

// BankKey identifies one bank across channels and ranks.
type BankKey struct {
	Channel, Rank, Bank int
}

func (k BankKey) String() string {
	return fmt.Sprintf("ch%d/rk%d/ba%d", k.Channel, k.Rank, k.Bank)
}

// BankSummary aggregates one bank's activity.
type BankSummary struct {
	ACTs, PREs, Reads, Writes uint64
}

// Summary aggregates a command stream.
type Summary struct {
	Commands   uint64
	Span       sim.Cycle // first..last command time
	CmdCounts  map[dram.CmdKind]uint64
	PerBank    map[BankKey]BankSummary
	RowHits    uint64  // column commands to an already-open row (see Summarize)
	RowHitRate float64 // RowHits / column commands
	Patterned  uint64  // RD/WR with non-zero pattern ID
}

// Summarize analyses a recorded stream.
func Summarize(events []memctrl.CommandEvent) Summary {
	s := Summary{
		CmdCounts: map[dram.CmdKind]uint64{},
		PerBank:   map[BankKey]BankSummary{},
	}
	if len(events) == 0 {
		return s
	}
	s.Commands = uint64(len(events))
	s.Span = events[len(events)-1].At - events[0].At

	var colCmds, hits uint64
	// A column command is a row hit iff it reads/writes the bank's
	// currently open row and is not the first column command after the
	// ACT that opened it — that first access is the row miss the ACT was
	// issued for. Track, per bank, which row is open and whether its ACT
	// is still unconsumed. (The previous heuristic, "last command was not
	// an ACT", miscounted whenever an ACT for one bank interleaved with
	// column commands to another row-open bank on the same rank.)
	type openRow struct {
		row      int
		freshACT bool // no column command has consumed this ACT yet
	}
	open := map[BankKey]openRow{}
	for _, ev := range events {
		s.CmdCounts[ev.Kind]++
		key := BankKey{ev.Channel, ev.Rank, ev.Bank}
		b := s.PerBank[key]
		switch ev.Kind {
		case dram.CmdACT:
			b.ACTs++
			open[key] = openRow{row: ev.Row, freshACT: true}
		case dram.CmdPRE:
			b.PREs++
			delete(open, key)
		case dram.CmdREF:
			// Refresh precharges every bank on the rank.
			for k := range open {
				if k.Channel == key.Channel && k.Rank == key.Rank {
					delete(open, k)
				}
			}
		case dram.CmdRD, dram.CmdWR:
			if ev.Kind == dram.CmdRD {
				b.Reads++
			} else {
				b.Writes++
			}
			colCmds++
			if o, ok := open[key]; ok && o.row == ev.Row && !o.freshACT {
				hits++
			}
			open[key] = openRow{row: ev.Row}
			if ev.Pattern != 0 {
				s.Patterned++
			}
		}
		s.PerBank[key] = b
	}
	s.RowHits = hits
	if colCmds > 0 {
		s.RowHitRate = float64(hits) / float64(colCmds)
	}
	return s
}

// Table renders the summary.
func (s Summary) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("DRAM command trace: %d commands over %d cycles (row-hit rate %.1f%%, %d patterned)",
			s.Commands, s.Span, 100*s.RowHitRate, s.Patterned),
		"bank", "ACT", "PRE", "RD", "WR")
	keys := make([]BankKey, 0, len(s.PerBank))
	for k := range s.PerBank {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Bank < b.Bank
	})
	for _, k := range keys {
		b := s.PerBank[k]
		t.Addf(k.String(), b.ACTs, b.PREs, b.Reads, b.Writes)
	}
	return t
}

// Timeline renders a per-bank ASCII lane chart of the commands in
// [from, to): one column per `step` cycles, 'A' = ACT, 'P' = PRE,
// 'R' = read, 'W' = write, 'F' = refresh, '.' = idle. Later commands in
// the same cell win; banks with no activity in the window are omitted.
func Timeline(events []memctrl.CommandEvent, from, to sim.Cycle, step sim.Cycle) string {
	if step == 0 || to <= from {
		return ""
	}
	cols := int((to - from + step - 1) / step)
	truncated := false
	if cols > 200 {
		cols = 200
		to = from + sim.Cycle(cols)*step
		truncated = true
	}
	lanes := map[BankKey][]byte{}
	glyph := map[dram.CmdKind]byte{
		dram.CmdACT: 'A', dram.CmdPRE: 'P', dram.CmdRD: 'R', dram.CmdWR: 'W', dram.CmdREF: 'F',
	}
	for _, ev := range events {
		if ev.At < from || ev.At >= to {
			continue
		}
		key := BankKey{ev.Channel, ev.Rank, ev.Bank}
		lane, ok := lanes[key]
		if !ok {
			lane = []byte(strings.Repeat(".", cols))
			lanes[key] = lane
		}
		lane[int((ev.At-from)/step)] = glyph[ev.Kind]
	}
	keys := make([]BankKey, 0, len(lanes))
	for k := range lanes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	var b strings.Builder
	fmt.Fprintf(&b, "cycles %d..%d, %d cycles/column", from, to, step)
	if truncated {
		fmt.Fprintf(&b, " (window truncated to %d columns)", cols)
	}
	b.WriteByte('\n')
	for _, k := range keys {
		fmt.Fprintf(&b, "%-12s %s\n", k.String(), lanes[k])
	}
	return b.String()
}
