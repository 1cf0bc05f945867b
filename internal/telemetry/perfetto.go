package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"gsdram/internal/dram"
	"gsdram/internal/metrics"
)

// Trace layout: each Run becomes one Perfetto process (pid = index+1).
// Within a process, cores occupy tids [coreTidBase, …) with a "run"
// slice spanning the core's busy interval and nested "dram stall"
// slices; each (channel, rank, bank) command lane occupies a tid from
// dramTidBase upward; epoch counter tracks are process-scoped "C"
// events. Timestamps are simulated CPU cycles, not microseconds — load
// the file in Perfetto and read the time axis as cycles.
const (
	coreTidBase = 1
	dramTidBase = 1000
)

// traceEvent is one Chrome trace_event record. Only the fields a given
// phase type uses are populated; omitempty keeps the file compact.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceWriter streams a traceEvents array without holding it in memory.
type traceWriter struct {
	w     *bufio.Writer
	first bool
	err   error
	// flowID numbers flow-event pairs; ids must be unique trace-wide.
	flowID uint64
}

func (t *traceWriter) emit(ev traceEvent) {
	if t.err != nil {
		return
	}
	if !t.first {
		t.w.WriteByte(',')
	}
	t.first = false
	blob, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	_, t.err = t.w.Write(blob)
}

// WriteTrace writes a Chrome trace_event / Perfetto-loadable JSON
// document covering every run: DRAM command slices per bank lane, core
// busy/stall slices, and epoch counter tracks. The output is fully
// deterministic: runs in slice order, lanes sorted, maps avoided except
// where encoding/json sorts keys.
func WriteTrace(w io.Writer, m Manifest, runs []*Run) error {
	tw := &traceWriter{w: bufio.NewWriter(w), first: true}

	other, err := json.Marshal(map[string]string{
		"tool":       m.Tool,
		"go_version": m.GoVersion,
		"seed":       fmt.Sprint(m.Seed),
		"workers":    fmt.Sprint(m.Workers),
		"time_unit":  "cpu-cycles",
	})
	if err != nil {
		return err
	}
	io.WriteString(tw.w, `{"displayTimeUnit":"ns","otherData":`)
	tw.w.Write(other)
	io.WriteString(tw.w, `,"traceEvents":[`)

	for i, run := range runs {
		if run == nil {
			continue
		}
		writeRun(tw, i+1, i, run)
	}

	if tw.err != nil {
		return tw.err
	}
	io.WriteString(tw.w, "]}\n")
	return tw.w.Flush()
}

// TrackSpan is one closed interval on a span track, in microseconds on
// the track set's shared time base.
type TrackSpan struct {
	Name    string
	StartUS uint64
	DurUS   uint64
}

// SpanTrack is one named lane of non-overlapping (or Perfetto-nestable)
// spans — e.g. one sweep point's lifecycle.
type SpanTrack struct {
	Name  string
	Spans []TrackSpan
}

// WriteSpanTrace writes a Chrome trace_event / Perfetto-loadable JSON
// document with one process (named name) and one thread per track, each
// span an "X" slice in real microseconds. It is the generic counterpart
// of WriteTrace for wall-clock span data — the farm uses it to render a
// sweep's point-lifecycle spans (gsbench sweep -trace-out).
func WriteSpanTrace(w io.Writer, name string, tracks []SpanTrack) error {
	tw := &traceWriter{w: bufio.NewWriter(w), first: true}
	io.WriteString(tw.w, `{"displayTimeUnit":"ms","otherData":{"time_unit":"us"},"traceEvents":[`)
	const pid = 1
	tw.emit(traceEvent{Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
		Args: map[string]any{"name": name}})
	for i, track := range tracks {
		tid := i + 1
		tw.emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": track.Name}})
		tw.emit(traceEvent{Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"sort_index": tid}})
		for _, sp := range track.Spans {
			dur := sp.DurUS
			if dur == 0 {
				dur = 1 // zero-width slices vanish in the UI
			}
			tw.emit(traceEvent{Name: sp.Name, Ph: "X", Pid: pid, Tid: tid,
				Ts: sp.StartUS, Dur: dur})
		}
	}
	if tw.err != nil {
		return tw.err
	}
	io.WriteString(tw.w, "]}\n")
	return tw.w.Flush()
}

func writeRun(tw *traceWriter, pid, sortIndex int, run *Run) {
	meta := func(name string, tid int, args map[string]any) {
		tw.emit(traceEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args})
	}
	meta("process_name", 0, map[string]any{"name": run.Label})
	meta("process_sort_index", 0, map[string]any{"sort_index": sortIndex})

	// Core lanes: one "run" slice per core, stall slices nested inside.
	for _, cs := range run.Cores {
		tid := coreTidBase + cs.Core
		meta("thread_name", tid, map[string]any{"name": fmt.Sprintf("core%d", cs.Core)})
		meta("thread_sort_index", tid, map[string]any{"sort_index": tid})
		if cs.Finish > cs.Start {
			tw.emit(traceEvent{Name: "run", Ph: "X", Pid: pid, Tid: tid,
				Ts: uint64(cs.Start), Dur: uint64(cs.Finish - cs.Start)})
		}
	}
	for _, ph := range run.Log.Phases() {
		tw.emit(traceEvent{Name: "dram stall", Ph: "X", Pid: pid, Tid: coreTidBase + ph.Core,
			Ts: uint64(ph.From), Dur: uint64(ph.To - ph.From)})
	}

	lanes := writeCommandLanes(tw, pid, run)
	writeFlowEvents(tw, pid, run, lanes)
	writeCounterTracks(tw, pid, run.Series)
}

// writeFlowEvents draws one flow arrow per captured request lifecycle:
// from the stalled core's "dram stall" slice to the CAS command slice on
// the bank lane that produced the data the core was waiting for. Only
// blocking requests whose CAS landed inside the captured command stream
// get an arrow — a flow must terminate on an existing slice.
func writeFlowEvents(tw *traceWriter, pid int, run *Run, lanes map[laneKey]int) {
	if len(lanes) == 0 {
		return
	}
	var lastCmd uint64
	for _, ev := range run.Log.Commands() {
		if uint64(ev.At) > lastCmd {
			lastCmd = uint64(ev.At)
		}
	}
	for _, tr := range run.Log.Requests() {
		if !tr.Blocking || tr.CAS == 0 || tr.Coalesced {
			continue
		}
		tid, ok := lanes[laneKey{tr.Channel, tr.Rank, tr.Bank}]
		if !ok || uint64(tr.CAS) > lastCmd {
			// The command capture was truncated before this CAS; no slice
			// to bind the arrow to.
			continue
		}
		tw.flowID++
		// The stall slice starts at the op's issue slot (start+1).
		tw.emit(traceEvent{Name: "unblock", Ph: "s", Pid: pid, Tid: coreTidBase + tr.Core,
			Ts: uint64(tr.Start + 1), ID: tw.flowID})
		tw.emit(traceEvent{Name: "unblock", Ph: "f", BP: "e", Pid: pid, Tid: tid,
			Ts: uint64(tr.CAS), ID: tw.flowID})
	}
}

// laneKey orders DRAM command lanes by (channel, rank, bank).
type laneKey struct{ ch, rk, ba int }

func writeCommandLanes(tw *traceWriter, pid int, run *Run) map[laneKey]int {
	cmds := run.Log.Commands()
	if len(cmds) == 0 {
		return nil
	}
	lanes := map[laneKey]int{}
	keys := []laneKey{}
	for _, ev := range cmds {
		k := laneKey{int(ev.Channel), int(ev.Rank), int(ev.Bank)}
		if _, ok := lanes[k]; !ok {
			lanes[k] = 0
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.ch != b.ch {
			return a.ch < b.ch
		}
		if a.rk != b.rk {
			return a.rk < b.rk
		}
		return a.ba < b.ba
	})
	for i, k := range keys {
		tid := dramTidBase + i
		lanes[k] = tid
		tw.emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": fmt.Sprintf("ch%d/rk%d/ba%d", k.ch, k.rk, k.ba)}})
		tw.emit(traceEvent{Name: "thread_sort_index", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"sort_index": tid}})
	}
	for _, ev := range cmds {
		tid := lanes[laneKey{int(ev.Channel), int(ev.Rank), int(ev.Bank)}]
		kind := dram.CmdKind(ev.Aux)
		name := kind.String()
		var args map[string]any
		switch kind {
		case dram.CmdACT:
			args = map[string]any{"row": ev.Row}
		case dram.CmdRD, dram.CmdWR:
			if ev.Pattern != 0 {
				name = fmt.Sprintf("%s p%d", name, ev.Pattern)
				args = map[string]any{"pattern": int(ev.Pattern)}
			}
		}
		tw.emit(traceEvent{Name: name, Ph: "X", Pid: pid, Tid: tid,
			Ts: uint64(ev.At), Dur: 1, Args: args})
	}
	return lanes
}

// writeCounterTracks emits one "C" event per epoch per column. Counter
// columns are emitted as deltas per epoch (rate tracks read better in
// Perfetto than ever-growing totals); gauge columns as their sampled
// instantaneous value.
func writeCounterTracks(tw *traceWriter, pid int, s *Series) {
	if s == nil || len(s.Epochs) == 0 {
		return
	}
	prev := make([]uint64, len(s.Columns))
	for _, ep := range s.Epochs {
		for c, name := range s.Columns {
			v := ep.Values[c]
			var val any
			if c < len(s.Kinds) && s.Kinds[c] == metrics.KindGauge {
				val = int64(v)
			} else {
				val = v - prev[c]
				prev[c] = v
			}
			tw.emit(traceEvent{Name: name, Ph: "C", Pid: pid,
				Ts: uint64(ep.At), Args: map[string]any{"value": val}})
		}
	}
}
