package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gsdram/internal/dram"
	"gsdram/internal/flight"
	"gsdram/internal/memctrl"
	"gsdram/internal/metrics"
	"gsdram/internal/sim"
)

// TestSamplerEpochs: the sampler snapshots every interval while the
// queue has work, then stops rescheduling so q.Run() terminates.
func TestSamplerEpochs(t *testing.T) {
	var q sim.EventQueue
	reg := metrics.New()
	var work metrics.Counter
	reg.RegisterCounter("work", &work)

	// A workload that does one unit of work every 40 cycles until t=400.
	var tick func(now sim.Cycle)
	tick = func(now sim.Cycle) {
		work++
		if now < 400 {
			q.Schedule(now+40, tick)
		}
	}
	q.Schedule(40, tick)

	s := NewSampler(&q, reg, 100)
	s.Start()
	end := q.Run()
	s.Finish(end)

	series := s.Series()
	if !reflect.DeepEqual(series.Columns, []string{"work"}) {
		t.Fatalf("columns = %v", series.Columns)
	}
	// At t=200 and t=400 a sampler tick and a work tick coincide; the
	// sampler's reschedule carries the earlier seq, so it samples first
	// (work=4 at 200, work=9 at 400) and, seeing the coincident work
	// event still pending, reschedules once more — the series runs one
	// tick past the workload, catching the final value at 500.
	var ats []sim.Cycle
	var vals []uint64
	for _, ep := range series.Epochs {
		ats = append(ats, ep.At)
		vals = append(vals, ep.Values[0])
	}
	wantAts := []sim.Cycle{100, 200, 300, 400, 500}
	if !reflect.DeepEqual(ats, wantAts) {
		t.Fatalf("epoch times = %v, want %v", ats, wantAts)
	}
	wantVals := []uint64{2, 4, 7, 9, 10}
	if !reflect.DeepEqual(vals, wantVals) {
		t.Fatalf("epoch values = %v, want %v", vals, wantVals)
	}
	if end != 500 {
		t.Fatalf("end = %d", end)
	}
}

// TestSamplerFinishRecordsFinalRow: when the workload ends between
// ticks, Finish appends the final row at the true end time.
func TestSamplerFinishRecordsFinalRow(t *testing.T) {
	var q sim.EventQueue
	reg := metrics.New()
	var work metrics.Counter
	reg.RegisterCounter("work", &work)
	q.Schedule(250, func(sim.Cycle) { work = 7 })

	s := NewSampler(&q, reg, 100)
	s.Start()
	end := q.Run()
	s.Finish(end)

	eps := s.Series().Epochs
	// Ticks at 100, 200; at 200 the workload event (t=250) is still
	// pending so the sampler reschedules for 300 — but after the
	// workload runs at 250 the 300 tick is the only event left, fires,
	// finds the queue empty, and stops. Finish(300) dedupes.
	var ats []sim.Cycle
	for _, ep := range eps {
		ats = append(ats, ep.At)
	}
	if !reflect.DeepEqual(ats, []sim.Cycle{100, 200, 300}) {
		t.Fatalf("epoch times = %v", ats)
	}
	if last := eps[len(eps)-1]; last.Values[0] != 7 {
		t.Fatalf("final row = %v, want work=7", last.Values)
	}
}

// TestSamplerTerminates: a sampler on an otherwise-empty queue must not
// keep q.Run() alive.
func TestSamplerTerminates(t *testing.T) {
	var q sim.EventQueue
	s := NewSampler(&q, metrics.New(), 10)
	s.Start()
	if end := q.Run(); end != 10 {
		t.Fatalf("end = %d, want one tick at 10", end)
	}
	if got := len(s.Series().Epochs); got != 1 {
		t.Fatalf("epochs = %d, want 1", got)
	}
}

// TestSeriesDoesNotRetainSampler: a run document keeps every run's
// series until the batch is written out, so the series must not keep
// its sampler reachable — the sampler holds the registry, which points
// into the whole rig. The finalizer sits on the registry because the
// sampler is in a reference cycle with its own tick closure, and the
// runtime does not run finalizers on cycles.
func TestSeriesDoesNotRetainSampler(t *testing.T) {
	collected := make(chan struct{})
	series := func() *Series {
		var q sim.EventQueue
		reg := metrics.New()
		runtime.SetFinalizer(reg, func(*metrics.Registry) { close(collected) })
		s := NewSampler(&q, reg, 10)
		s.Start()
		s.Finish(q.Run())
		return s.Series()
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			if len(series.Epochs) == 0 {
				t.Fatal("detached series lost its epochs")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("sampler's registry still reachable while only its series is held")
}

// testRun builds a small Run with every kind of content.
func testRun(t *testing.T) *Run {
	t.Helper()
	reg := metrics.New()
	var c metrics.Counter
	var g metrics.Gauge
	reg.RegisterCounter("memctrl.reads", &c)
	reg.RegisterGauge("memctrl.depth", &g)

	log := flight.New(10, 10, 10, 0)
	log.Phase(0, 100, 180)
	log.Command(memctrl.CommandEvent{At: 110, Channel: 0, Rank: 0, Bank: 2, Row: 7, Kind: dram.CmdACT})
	log.Command(memctrl.CommandEvent{At: 120, Channel: 0, Rank: 0, Bank: 2, Row: 7, Kind: dram.CmdRD, Pattern: 3})
	log.Command(memctrl.CommandEvent{At: 130, Channel: 0, Rank: 0, Bank: 1, Row: 4, Kind: dram.CmdACT})

	return &Run{
		Label:    "fig9/test",
		Registry: reg,
		Series: &Series{
			Interval: 100,
			Columns:  []string{"memctrl.reads", "memctrl.depth"},
			Kinds:    []metrics.Kind{metrics.KindCounter, metrics.KindGauge},
			Epochs: []Epoch{
				{At: 100, Values: []uint64{5, uint64(2)}},
				{At: 200, Values: []uint64{9, uint64(1)}},
			},
		},
		Cores: []CoreSpan{{Core: 0, Start: 0, Finish: 200}},
		Log:   log,
		End:   200,
	}
}

// TestWriteTraceDecodes: the Perfetto output is valid JSON with the
// expected event population.
func TestWriteTraceDecodes(t *testing.T) {
	var buf bytes.Buffer
	m := Manifest{Tool: "gsbench", GoVersion: "go-test", Seed: 1, Workers: 2}
	if err := WriteTrace(&buf, m, []*Run{testRun(t)}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData   map[string]string `json:"otherData"`
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	if doc.OtherData["seed"] != "1" || doc.OtherData["workers"] != "2" {
		t.Fatalf("otherData = %v", doc.OtherData)
	}
	byPh := map[string]int{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		byPh[ev.Ph]++
		names[ev.Name] = true
	}
	// Metadata: process_name + process_sort_index + core thread pair +
	// two lane pairs = 8; slices: run + stall + 3 commands = 5;
	// counters: 2 epochs x 2 columns = 4.
	if byPh["M"] != 8 || byPh["X"] != 5 || byPh["C"] != 4 {
		t.Fatalf("event population = %v", byPh)
	}
	for _, want := range []string{"run", "dram stall", "ACT", "RD p3", "memctrl.reads", "memctrl.depth"} {
		if !names[want] {
			t.Fatalf("missing event %q (have %v)", want, names)
		}
	}
	// Patterned read carries its pattern arg.
	for _, ev := range doc.TraceEvents {
		if ev.Name == "RD p3" && ev.Args["pattern"].(float64) != 3 {
			t.Fatalf("RD p3 args = %v", ev.Args)
		}
	}
}

// TestWriteTraceCounterDeltas: counter tracks emit per-epoch deltas,
// gauges instantaneous values.
func TestWriteTraceCounterDeltas(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, Manifest{}, []*Run{testRun(t)}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   uint64         `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	got := map[string]map[uint64]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "C" {
			continue
		}
		if got[ev.Name] == nil {
			got[ev.Name] = map[uint64]float64{}
		}
		got[ev.Name][ev.Ts] = ev.Args["value"].(float64)
	}
	// Counter 5 → 9 becomes deltas 5, 4; gauge stays 2, 1.
	want := map[string]map[uint64]float64{
		"memctrl.reads": {100: 5, 200: 4},
		"memctrl.depth": {100: 2, 200: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("counter tracks = %v, want %v", got, want)
	}
}

// TestWriteSpanTrace: the generic span-track writer produces a valid
// trace with one thread per track and one "X" slice per span, zero
// durations widened to 1µs so they stay visible.
func TestWriteSpanTrace(t *testing.T) {
	var buf bytes.Buffer
	tracks := []SpanTrack{
		{Name: "point0", Spans: []TrackSpan{
			{Name: "queued", StartUS: 0, DurUS: 10},
			{Name: "running", StartUS: 10, DurUS: 500},
		}},
		{Name: "point1", Spans: []TrackSpan{
			{Name: "cache_probe", StartUS: 3, DurUS: 0},
		}},
	}
	if err := WriteSpanTrace(&buf, "sweep job-1", tracks); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("span trace does not decode: %v", err)
	}
	slices := map[string][]uint64{} // name → {tid, ts, dur}
	meta := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			slices[ev.Name] = []uint64{uint64(ev.Tid), ev.Ts, ev.Dur}
		}
	}
	// process_name + 2×(thread_name + thread_sort_index) = 5 meta events.
	if meta != 5 || len(slices) != 3 {
		t.Fatalf("event population: %d meta, %d slices", meta, len(slices))
	}
	if got := slices["running"]; got[0] != 1 || got[1] != 10 || got[2] != 500 {
		t.Fatalf("running slice = %v", got)
	}
	if got := slices["cache_probe"]; got[0] != 2 || got[2] != 1 {
		t.Fatalf("cache_probe slice = %v; want tid 2 with widened dur 1", got)
	}
}
