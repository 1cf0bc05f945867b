package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/dram"
	"gsdram/internal/gsdram"
	"gsdram/internal/latency"
	"gsdram/internal/memctrl"
	"gsdram/internal/metrics"
	"gsdram/internal/sim"
)

// cmd is a DDR command on channel 0, rank 0.
func cmd(at sim.Cycle, bank, row int, kind dram.CmdKind, patt gsdram.Pattern) memctrl.CommandEvent {
	return memctrl.CommandEvent{At: at, Bank: bank, Row: row, Kind: kind, Pattern: patt}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Command(cmd(1, 0, 0, dram.CmdACT, 0))
	r.CacheLine(1, KindFill, 0, 1, 0x40, 0)
	r.Coherence(1, KindOverlapFlush, 0, 0x40, 0)
	r.Burst(1, 0, true, 0x40, 3, 4)
	r.MSHR(1, KindMSHRAlloc, 0, 0x40, 0, 1)
	r.CoreOp(1, KindLoad, 0, 0x40, 0, 0)
	r.Phase(0, 1, 2)
	r.Request(0, 1, 2, false, true, 0, &latency.ReqLat{})
	if r.Depth() != 0 || r.Seen(CompDDR) != 0 || r.Snapshot(CompDDR) != nil ||
		r.Commands() != nil || r.Phases() != nil || r.PhasesSeen() != 0 || r.Requests() != nil {
		t.Fatal("nil recorder must observe and retain nothing")
	}
}

// TestStream is the table test of the bounded buffer behind every stream
// of the log: the head keeps exactly the first headCap records and stops,
// the tail keeps the last len(tail) records oldest-first (before and
// after it wraps), and seen counts every record, dropped or not.
func TestStream(t *testing.T) {
	seq := func(from, to int) []int {
		var out []int
		for i := from; i < to; i++ {
			out = append(out, i)
		}
		return out
	}
	for _, tc := range []struct {
		name             string
		head, tail, n    int
		wantHead, wantTl []int
	}{
		{"empty", 4, 4, 0, nil, nil},
		{"no capacity", 0, 0, 7, nil, nil},
		{"head below cap", 8, 0, 3, seq(0, 3), nil},
		{"head drops past cap", 5, 0, 20, seq(0, 5), nil},
		{"tail before wrap", 0, 8, 2, nil, seq(0, 2)},
		{"tail exactly full", 0, 4, 4, nil, seq(0, 4)},
		{"tail wraps", 0, 4, 10, nil, seq(6, 10)},
		{"head and tail", 3, 4, 10, seq(0, 3), seq(6, 10)},
	} {
		s := newStream[int](tc.head, tc.tail)
		for i := 0; i < tc.n; i++ {
			s.record(i)
		}
		if !slices.Equal(s.head, tc.wantHead) {
			t.Errorf("%s: head = %v, want %v", tc.name, s.head, tc.wantHead)
		}
		if got := s.last(); !slices.Equal(got, tc.wantTl) {
			t.Errorf("%s: tail = %v, want %v", tc.name, got, tc.wantTl)
		}
		if s.seen != uint64(tc.n) {
			t.Errorf("%s: seen = %d, want %d", tc.name, s.seen, tc.n)
		}
	}
}

// TestComponentsAreIndependent: each stream of a log has its own bounds
// and count, so chatty DDR traffic evicts neither a quiet component's
// tail nor the phase and request heads.
func TestComponentsAreIndependent(t *testing.T) {
	r := New(2, 2, 2, 2)
	for i := 0; i < 100; i++ {
		r.Command(cmd(sim.Cycle(i), 0, 0, dram.CmdRD, 0))
	}
	r.Coherence(3, KindCrossProbe, 1, 0x40, 0)
	r.Phase(3, 10, 20)
	if got := len(r.Snapshot(CompCoherence)); got != 1 {
		t.Fatalf("coherence kept %d events, want 1 — DDR traffic must not evict it", got)
	}
	if got := r.Seen(CompCoherence); got != 1 {
		t.Fatalf("coherence seen = %d, want 1", got)
	}
	if c := r.Commands(); r.Seen(CompDDR) != 100 || len(c) != 2 || c[0].At != 0 || c[1].At != 1 {
		t.Fatalf("commands head = %+v (seen %d), want the first 2 of 100", c, r.Seen(CompDDR))
	}
	if len(r.Phases()) != 1 || r.PhasesSeen() != 1 {
		t.Fatalf("phases = %v (seen %d), want the one recorded", r.Phases(), r.PhasesSeen())
	}
	if len(r.Requests()) != 0 {
		t.Fatal("requests recorded without a request")
	}
}

func TestRingKeepsLastK(t *testing.T) {
	r := New(0, 0, 0, 4)
	for i := 0; i < 10; i++ {
		r.Command(cmd(sim.Cycle(i), 0, 100+i, dram.CmdRD, 0))
	}
	if got := r.Seen(CompDDR); got != 10 {
		t.Fatalf("seen = %d, want 10", got)
	}
	snap := r.Snapshot(CompDDR)
	if len(snap) != 4 {
		t.Fatalf("kept %d events, want 4", len(snap))
	}
	for i, e := range snap {
		if want := sim.Cycle(6 + i); e.At != want || e.Row != int32(100+6+i) {
			t.Fatalf("snapshot[%d] = %+v, want At %d (oldest-first last-K)", i, e, want)
		}
	}
}

func TestSnapshotBeforeWrap(t *testing.T) {
	r := New(0, 0, 0, 8)
	r.CacheLine(5, KindFill, 1, 2, 0x80, 0)
	r.CacheLine(7, KindWriteback, 1, 1, 0xc0, 3)
	snap := r.Snapshot(CompCache)
	if len(snap) != 2 || snap[0].At != 5 || snap[1].At != 7 {
		t.Fatalf("snapshot = %+v, want the 2 recorded events in order", snap)
	}
	if snap[1].Kind != KindWriteback || snap[1].Pattern != 3 || snap[1].Aux != 1 || snap[1].Addr != 0xc0 {
		t.Fatalf("snapshot[1] = %+v: fields not preserved", snap[1])
	}
}

// controllerCommands runs n streaming reads through a DDR controller whose
// observer is the log's Command, as memsys wires it, and returns the log.
func controllerCommands(t *testing.T, headCap, n int) *Recorder {
	t.Helper()
	log := New(headCap, 0, 0, 0)
	q := &sim.EventQueue{}
	cfg := memctrl.DefaultConfig()
	cfg.Observer = log.Command
	c, err := memctrl.New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a := addrmap.Default.Compose(addrmap.Loc{Bank: i % 2, Row: 10, Col: i % 128})
		q.Schedule(sim.Cycle(i*50), func(now sim.Cycle) {
			c.Enqueue(now, &memctrl.Request{Addr: a})
		})
	}
	q.Run()
	return log
}

// TestCommandHeadCap: a controller's commands fill the head up to its
// cap, and the seen count keeps counting past it.
func TestCommandHeadCap(t *testing.T) {
	log := controllerCommands(t, 5, 20)
	if got := len(log.Commands()); got != 5 {
		t.Fatalf("recorded %d commands, want cap 5", got)
	}
	if log.Seen(CompDDR) <= 5 {
		t.Fatal("seen counter did not keep counting past the cap")
	}
}

// TestCommandHeadKeepsPrefix: a capped head is exactly the prefix of the
// uncapped command stream, and the cap does not change the count.
func TestCommandHeadKeepsPrefix(t *testing.T) {
	full := controllerCommands(t, 1<<20, 20)
	capped := controllerCommands(t, 5, 20)
	if capped.Seen(CompDDR) != full.Seen(CompDDR) {
		t.Fatalf("seen = %d, want %d (cap must not affect counting)", capped.Seen(CompDDR), full.Seen(CompDDR))
	}
	if got, want := capped.Commands(), full.Commands()[:5]; !reflect.DeepEqual(got, want) {
		t.Fatalf("capped commands are not the stream prefix:\n got %+v\nwant %+v", got, want)
	}
}

func TestPhaseHeadCap(t *testing.T) {
	r := New(0, 2, 0, 0)
	r.Phase(3, 10, 20)
	r.Phase(3, 30, 40)
	r.Phase(3, 50, 60) // dropped
	if r.PhasesSeen() != 3 {
		t.Fatalf("seen = %d, want 3", r.PhasesSeen())
	}
	want := []Phase{{Core: 3, From: 10, To: 20}, {Core: 3, From: 30, To: 40}}
	if got := r.Phases(); !reflect.DeepEqual(got, want) {
		t.Fatalf("phases = %v, want %v", got, want)
	}
}

// TestRequestHeadCap: the log keeps the first lifecycles of the requests
// memsys reports to it and to the latency recorder; the recorder counts
// every one of them.
func TestRequestHeadCap(t *testing.T) {
	r := New(0, 0, 2, 0)
	lat := latency.NewRecorder(1, 1, 1, 8, metrics.New())
	rl := &latency.ReqLat{Enqueue: 10, Done: 20}
	for i := 0; i < 5; i++ {
		lat.ObserveMiss(0, 5, 25, false, true, 0, rl)
		r.Request(0, 5, 25, false, true, 0, rl)
	}
	if len(r.Requests()) != 2 || lat.Seen() != 5 {
		t.Fatalf("requests=%d seen=%d, want 2/5", len(r.Requests()), lat.Seen())
	}
	if got := r.Requests()[1]; got.Start != 5 || got.Unstall != 25 || got.Enqueue != 10 || got.Done != 20 || !got.Blocking {
		t.Fatalf("request = %+v: fields not preserved", got)
	}
}

func TestRecordingIsAllocationFree(t *testing.T) {
	r := New(1, 1, 1, 64)
	rl := &latency.ReqLat{}
	allocs := testing.AllocsPerRun(100, func() {
		r.Command(cmd(1, 2, 42, dram.CmdRD, 3))
		r.CacheLine(1, KindFill, 0, 1, 0x40, 0)
		r.MSHR(1, KindMSHRAlloc, 0, 0x40, 0, 1)
		r.CoreOp(1, KindLoad, 0, 0x40, 0, 0)
		r.Phase(0, 1, 2)
		r.Request(0, 1, 2, false, true, 0, rl)
	})
	if allocs != 0 {
		t.Fatalf("recording allocated %.1f times per run, want 0", allocs)
	}
}

func TestWriteNDJSON(t *testing.T) {
	r := New(0, 0, 0, 4)
	r.Command(memctrl.CommandEvent{At: 10, Channel: 1, Bank: 3, Row: 200, Kind: dram.CmdACT})
	r.Command(memctrl.CommandEvent{At: 12, Channel: 1, Bank: 3, Row: 200, Kind: dram.CmdRD, Pattern: 3})
	r.CacheLine(15, KindFill, 0, 2, 0x1c0, 3)
	r.CoreOp(9, KindGatherV, 0, 0x1c0, 3, 8)

	var buf bytes.Buffer
	mark := func(e Event) bool { return e.Addr == 0x1c0 }
	if err := WriteNDJSON(&buf, []LabeledRecorder{{Label: "fig9/gs", Rec: r}}, mark); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("empty dump")
	}
	var meta struct {
		Flight     string   `json:"flight"`
		Depth      int      `json:"depth"`
		Labels     []string `json:"labels"`
		Components map[string]struct {
			Seen uint64 `json:"seen"`
			Kept int    `json:"kept"`
		} `json:"components"`
	}
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		t.Fatalf("meta line: %v", err)
	}
	if meta.Flight != "gsdram-flight/1" || meta.Depth != 4 {
		t.Fatalf("meta = %+v", meta)
	}
	if len(meta.Labels) != 1 || meta.Labels[0] != "fig9/gs" {
		t.Fatalf("labels = %v", meta.Labels)
	}
	if got := meta.Components["ddr"]; got.Seen != 2 || got.Kept != 2 {
		t.Fatalf("ddr component count = %+v", got)
	}
	if got := meta.Components["coherence"]; got.Seen != 0 || got.Kept != 0 {
		t.Fatal("quiet components must still appear in the meta line")
	}

	var events []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		events = append(events, m)
	}
	if len(events) != 4 {
		t.Fatalf("dumped %d events, want 4", len(events))
	}
	// Components dump in enum order: ddr, cache, ..., core.
	if events[0]["component"] != "ddr" || events[0]["cmd"] != "ACT" || events[0]["pattern"] != "p0" {
		t.Fatalf("first event = %v", events[0])
	}
	if events[1]["cmd"] != "RD" || events[1]["pattern"] != "p3" || events[1]["bank"] != float64(3) {
		t.Fatalf("second event = %v", events[1])
	}
	if events[2]["component"] != "cache" || events[2]["addr"] != "0x1c0" || events[2]["mark"] != true {
		t.Fatalf("cache event = %v", events[2])
	}
	if events[3]["component"] != "core" || events[3]["kind"] != "gatherv" || events[3]["aux"] != float64(8) {
		t.Fatalf("core event = %v", events[3])
	}
	// DDR events carry bank/row but no core; core ops carry core but no bank.
	if _, ok := events[0]["core"]; ok {
		t.Fatal("DDR command must omit core")
	}
	if _, ok := events[3]["bank"]; ok {
		t.Fatal("core op must omit bank")
	}
}

func TestWriteNDJSONMultiLabel(t *testing.T) {
	a, b := New(0, 0, 0, 2), New(0, 0, 0, 2)
	a.CoreOp(1, KindLoad, 0, 0x40, 0, 0)
	b.CoreOp(2, KindStore, 0, 0x80, 0, 0)
	var buf bytes.Buffer
	err := WriteNDJSON(&buf, []LabeledRecorder{{Label: "z", Rec: b}, {Label: "a", Rec: a}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	sc.Scan() // meta
	var meta struct {
		Labels     []string                   `json:"labels"`
		Components map[string]json.RawMessage `json:"components"`
	}
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	if len(meta.Labels) != 2 || meta.Labels[0] != "a" || meta.Labels[1] != "z" {
		t.Fatalf("labels = %v, want sorted [a z]", meta.Labels)
	}
	if _, ok := meta.Components["a/core"]; !ok {
		t.Fatalf("multi-label meta must prefix component keys: %v", meta.Components)
	}
	var labels []string
	for sc.Scan() {
		var e struct {
			Label string `json:"label"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		labels = append(labels, e.Label)
	}
	if len(labels) != 2 || labels[0] != "a" || labels[1] != "z" {
		t.Fatalf("event labels = %v, want label-sorted", labels)
	}
}

func TestKindAndComponentNames(t *testing.T) {
	if gsdram.Pattern(3).String() != "p3" {
		t.Fatal("gsdram.Pattern String")
	}
	for c := Component(0); c < NumComponents; c++ {
		if c.String() == "" {
			t.Fatalf("component %d has no name", c)
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}
