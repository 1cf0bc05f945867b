package bench

import (
	"sort"
	"sync"

	"gsdram/internal/flight"
	"gsdram/internal/rig"
	"gsdram/internal/sim"
	"gsdram/internal/telemetry"
)

// Head caps of every telemetered rig's event log: enough for the quick
// experiment scales to be captured whole, bounded so paper-scale runs
// cannot exhaust memory. The log's seen counts record any truncation.
const (
	maxTraceCommands = 200_000
	maxTracePhases   = 100_000
	maxLatencyTraces = 50_000
)

// Capture is one experiment batch's telemetry collection context: set it
// on Options.Capture and every labelled rig the batch builds records a
// per-run metrics registry, epoch time-series and event log into it.
// Captures are independent — concurrent batches (e.g. telemetered sweep
// points in one farm process) each drain exactly the runs they produced,
// with no cross-talk and no global serialization.
// A nil *Capture disables capture: rigs are built with a nil registry
// and no event log, so the simulation pays nothing beyond the counter
// increments it always performed.
type Capture struct {
	epoch sim.Cycle
	// flightDepth > 0 additionally keeps the last flightDepth events per
	// component in every rig's log (see internal/flight).
	flightDepth int

	mu      sync.Mutex
	runs    []*telemetry.Run
	flights []flight.LabeledRecorder
}

// NewCapture returns an empty capture context. epochCycles is the
// sampling interval of the epoch time-series (0 selects
// telemetry.DefaultEpoch).
func NewCapture(epochCycles uint64) *Capture {
	return &Capture{epoch: sim.Cycle(epochCycles)}
}

// SetFlightDepth arms flight recording on every rig this capture
// subsequently builds: each rig's log keeps the last depth events per
// component (depth <= 0 disarms). Call before the batch runs.
func (c *Capture) SetFlightDepth(depth int) { c.flightDepth = depth }

// FlightRecorders returns the logs of every rig the capture armed with
// flight recording so far, label-sorted, including rigs that have not
// finished — so a dump after a panic still shows the events leading up
// to it. Logs belong to their rig's event loop; only read them once the
// batch has stopped running.
func (c *Capture) FlightRecorders() []flight.LabeledRecorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]flight.LabeledRecorder(nil), c.flights...)
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// Drain returns the runs captured since the last call (or since
// NewCapture), sorted by label so the result is deterministic regardless
// of worker scheduling, and clears the collection.
func (c *Capture) Drain() []*telemetry.Run {
	c.mu.Lock()
	defer c.mu.Unlock()
	runs := c.runs
	c.runs = nil
	sort.Slice(runs, func(i, j int) bool { return runs[i].Label < runs[j].Label })
	return runs
}

// add records one finished run.
func (c *Capture) add(run *telemetry.Run) {
	c.mu.Lock()
	c.runs = append(c.runs, run)
	c.mu.Unlock()
}

// forRig returns the rig options that record a labelled run into the
// capture: an event log and the telemetry request whose finished run
// the capture collects. It returns the zero Options — an untelemetered
// rig — when the batch has no capture context or the run has no label.
func (c *Capture) forRig(label string) rig.Options {
	if c == nil || label == "" {
		return rig.Options{}
	}
	log := flight.New(maxTraceCommands, maxTracePhases, maxLatencyTraces, c.flightDepth)
	if c.flightDepth > 0 {
		c.mu.Lock()
		c.flights = append(c.flights, flight.LabeledRecorder{Label: label, Rec: log})
		c.mu.Unlock()
	}
	return rig.Options{Log: log, Telemetry: &rig.Telemetry{Label: label, Epoch: c.epoch, Done: c.add}}
}
