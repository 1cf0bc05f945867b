package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"gsdram/internal/bench"
	"gsdram/internal/flight"
	"gsdram/internal/stats"
	"gsdram/internal/telemetry"
)

// Outcome is one executed spec: the structured experiment result plus
// everything a run document needs.
type Outcome struct {
	Spec    *Spec
	WallNS  int64
	Result  any
	Summary any
	Tables  []*stats.Table
	Sampled []bench.SampledEntry
	// Telemetry is the condensed per-run document section; Runs keeps
	// the raw captures for exporters (traces, Prometheus, the latency
	// report). Both are nil for untelemetered specs.
	Telemetry []TelemetryEntry
	Runs      []*telemetry.Run
	// Flight holds the labelled flight recorders when the run was armed
	// with RunFlight (nil otherwise); dump with flight.WriteNDJSON.
	Flight []flight.LabeledRecorder
}

// Run validates and executes one spec, constructing the rig exactly as
// the CLI would for the equivalent flags. It is safe for concurrent use:
// every knob of the spec, NoInline and L2Latency included, travels in
// the batch's bench.Options, so concurrent specs share no switch.
func Run(s *Spec) (*Outcome, error) { return execute(s, false) }

// RunFlight is Run with a flight recorder armed on every rig at
// flight.DefaultDepth. Flight rides the telemetry capture context, so
// it forces telemetry on; recording is pinned bit-identical, so the
// results are unchanged.
func RunFlight(s *Spec) (*Outcome, error) { return execute(s, true) }

// prepare normalizes and validates s and resolves it into the runner's
// options, with a capture when the spec is telemetered. armed forces
// telemetry on (at the default epoch unless one is set) and arms the
// capture's flight recording at flight.DefaultDepth.
func prepare(s *Spec, armed bool) (*Spec, bench.Options, error) {
	s = s.Normalized()
	if armed {
		s.Telemetry = true
		if s.Epoch == 0 {
			s.Epoch = uint64(telemetry.DefaultEpoch)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, bench.Options{}, err
	}
	opts := s.BenchOptions()
	if s.Telemetry {
		opts.Capture = bench.NewCapture(s.Epoch)
		if armed {
			opts.Capture.SetFlightDepth(flight.DefaultDepth)
		}
	}
	return s, opts, nil
}

// execute is Run, and RunFlight when armed.
func execute(s *Spec, armed bool) (*Outcome, error) {
	s, opts, err := prepare(s, armed)
	if err != nil {
		return nil, err
	}
	run, _ := lookup(s.Experiment) // Validate checked membership
	start := time.Now()
	result, summary, tables, err := run(s, opts)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Spec:    s,
		WallNS:  wall.Nanoseconds(),
		Result:  result,
		Summary: summary,
		Tables:  tables,
		Sampled: sampledEntries(result),
	}
	if c := opts.Capture; c != nil {
		out.Runs = c.Drain()
		for _, r := range out.Runs {
			out.Telemetry = append(out.Telemetry, NewTelemetryEntry(r))
		}
		if armed {
			out.Flight = c.FlightRecorders()
		}
	}
	return out, nil
}

// DumpFlight re-executes a spec armed as RunFlight arms it and writes
// the NDJSON dump to w. A panic during the re-run is recovered and
// returned as the error — the dump still covers every event recorded up
// to the failure, which is the whole point: the farm calls this for
// failed and retried points.
func DumpFlight(s *Spec, w io.Writer) (err error) {
	s, opts, err := prepare(s, true)
	if err != nil {
		return err
	}
	run, _ := lookup(s.Experiment)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("spec: dump-flight re-run panicked: %v", r)
			}
		}()
		if _, _, _, rerr := run(s, opts); rerr != nil {
			err = rerr
		}
	}()
	if werr := flight.WriteNDJSON(w, opts.Capture.FlightRecorders(), nil); werr != nil {
		return werr
	}
	return err
}

// Record is one experiment's entry in a run document (identical to the
// gsbench -json shape, including the committed BENCH_seed.json).
type Record struct {
	Experiment string               `json:"experiment"`
	WallNS     int64                `json:"wall_ns"`
	Summary    any                  `json:"summary,omitempty"`
	Result     any                  `json:"result"`
	Sampled    []bench.SampledEntry `json:"sampled,omitempty"`
	Telemetry  []TelemetryEntry     `json:"telemetry,omitempty"`
}

// Document is the top-level run-document shape: a manifest plus one
// record per experiment. gsbench -json writes one for the selected
// experiments; the farm stores one per sweep point.
type Document struct {
	Manifest    telemetry.Manifest `json:"manifest"`
	Experiments []Record           `json:"experiments"`
}

// Record condenses the outcome into its document entry.
func (o *Outcome) Record() Record {
	return Record{
		Experiment: o.Spec.Experiment,
		WallNS:     o.WallNS,
		Summary:    o.Summary,
		Result:     o.Result,
		Sampled:    o.Sampled,
		Telemetry:  o.Telemetry,
	}
}

// Marshal renders a document exactly as gsbench -json does: indented,
// with a trailing newline.
func (d *Document) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RunDocument executes one spec and returns its single-experiment run
// document, the unit the result cache stores under the spec hash. The
// simulation is deterministic, so everything in the document except
// wall_ns is identical run to run; wall_ns records the execution that
// actually produced the stored bytes.
func RunDocument(s *Spec) ([]byte, error) {
	out, err := Run(s)
	if err != nil {
		return nil, err
	}
	doc := &Document{
		Manifest:    out.Spec.Manifest(runtime.Version()),
		Experiments: []Record{out.Record()},
	}
	return doc.Marshal()
}
