package memctrl

import (
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/dram"
	"gsdram/internal/sim"
)

// protocolChecker is an external DDR protocol verifier fed from the
// controller's command observer: it replays the command stream against an
// independent model of legal ordering.
type protocolChecker struct {
	t        *testing.T
	openRow  map[[3]int]int // (channel,rank,bank) -> row
	lastCmd  sim.Cycle
	firstCmd bool
	count    int
	refs     uint64
}

func newChecker(t *testing.T) *protocolChecker {
	return &protocolChecker{t: t, openRow: map[[3]int]int{}, firstCmd: true}
}

func (p *protocolChecker) observe(ev CommandEvent) {
	p.count++
	key := [3]int{ev.Channel, ev.Rank, ev.Bank}
	if !p.firstCmd && ev.At < p.lastCmd {
		p.t.Errorf("command at %d issued before previous command at %d", ev.At, p.lastCmd)
	}
	p.firstCmd = false
	p.lastCmd = ev.At

	switch ev.Kind {
	case dram.CmdACT:
		if row, open := p.openRow[key]; open {
			p.t.Errorf("ACT at %d to %v with row %d already open", ev.At, key, row)
		}
		p.openRow[key] = ev.Row
	case dram.CmdPRE:
		if _, open := p.openRow[key]; !open {
			p.t.Errorf("PRE at %d to %v with no open row", ev.At, key)
		}
		delete(p.openRow, key)
	case dram.CmdRD, dram.CmdWR:
		row, open := p.openRow[key]
		if !open {
			p.t.Errorf("%v at %d to %v with no open row", ev.Kind, ev.At, key)
		} else if row != ev.Row {
			p.t.Errorf("%v at %d to %v row %d but open row is %d", ev.Kind, ev.At, key, ev.Row, row)
		}
	case dram.CmdREF:
		p.refs++
		for k := range p.openRow {
			if k[0] == ev.Channel && k[1] == ev.Rank {
				p.t.Errorf("REF at %d with bank %v open", ev.At, k)
			}
		}
	}
}

// TestProtocolCheckerOnRandomTraffic runs a random workload with the
// external protocol checker attached.
func TestProtocolCheckerOnRandomTraffic(t *testing.T) {
	for _, row := range []RowPolicy{OpenRow, ClosedRow} {
		row := row
		t.Run(row.String(), func(t *testing.T) {
			q := &sim.EventQueue{}
			chk := newChecker(t)
			cfg := DefaultConfig()
			cfg.Row = row
			cfg.Observer = chk.observe
			c, err := New(cfg, q)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRand(5)
			for i := 0; i < 2000; i++ {
				a := addrmap.Default.Compose(addrmap.Loc{
					Bank: rng.Intn(8), Row: rng.Intn(256), Col: rng.Intn(128),
				})
				at := sim.Cycle(rng.Intn(1_000_000))
				write := rng.Intn(4) == 0
				q.Schedule(at, func(now sim.Cycle) {
					c.Enqueue(now, &Request{Addr: a, Write: write})
				})
			}
			q.Run()
			if chk.count == 0 {
				t.Fatal("observer saw no commands")
			}
			// Long run spanning refresh intervals must include REFs,
			// every one of which the controller counted.
			if chk.refs == 0 {
				t.Fatal("no REF in a run spanning refresh intervals")
			}
			if got := c.Stats().Refreshes; chk.refs != got {
				t.Fatalf("observer saw %d REFs, controller counted %d refreshes", chk.refs, got)
			}
		})
	}
}

// TestObserverSeesPatternIDs: patterned reads carry their pattern ID in
// the command event (the pins of paper §3.6).
func TestObserverSeesPatternIDs(t *testing.T) {
	q := &sim.EventQueue{}
	var patterns []int
	cfg := DefaultConfig()
	cfg.Observer = func(ev CommandEvent) {
		if ev.Kind == dram.CmdRD {
			patterns = append(patterns, int(ev.Pattern))
		}
	}
	c, err := New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	a := addrmap.Default.Compose(addrmap.Loc{Bank: 1, Row: 9, Col: 16})
	q.Schedule(0, func(now sim.Cycle) {
		c.Enqueue(now, &Request{Addr: a, Pattern: 7})
		c.Enqueue(now, &Request{Addr: a + 64, Pattern: 0})
	})
	q.Run()
	if len(patterns) != 2 || patterns[0] != 7 || patterns[1] != 0 {
		t.Fatalf("observed patterns %v, want [7 0]", patterns)
	}
}

// TestObserverCommandCountsMatchStats: the observer's command tally must
// equal the controller's counters.
func TestObserverCommandCountsMatchStats(t *testing.T) {
	q := &sim.EventQueue{}
	counts := map[dram.CmdKind]uint64{}
	cfg := DefaultConfig()
	cfg.Observer = func(ev CommandEvent) { counts[ev.Kind]++ }
	c, err := New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(11)
	for i := 0; i < 300; i++ {
		a := addrmap.Default.Compose(addrmap.Loc{Bank: rng.Intn(8), Row: rng.Intn(32), Col: rng.Intn(128)})
		at := sim.Cycle(i * 100)
		q.Schedule(at, func(now sim.Cycle) {
			c.Enqueue(now, &Request{Addr: a, Write: i%5 == 0})
		})
	}
	q.Run()
	s := c.Stats()
	if counts[dram.CmdRD] != s.ReadsServed-s.Forwards {
		t.Errorf("observer RDs %d, stats %d", counts[dram.CmdRD], s.ReadsServed-s.Forwards)
	}
	if counts[dram.CmdWR] != s.WritesServed {
		t.Errorf("observer WRs %d, stats %d", counts[dram.CmdWR], s.WritesServed)
	}
	if counts[dram.CmdACT] != s.ACTs {
		t.Errorf("observer ACTs %d, stats %d", counts[dram.CmdACT], s.ACTs)
	}
	if counts[dram.CmdPRE] != s.PREs {
		t.Errorf("observer PREs %d, stats %d", counts[dram.CmdPRE], s.PREs)
	}
}
