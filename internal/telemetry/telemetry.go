// Package telemetry turns a rig's metrics registry and event log into
// run-level artefacts: an epoch time-series sampled on the event queue,
// and a Chrome trace_event / Perfetto JSON exporter over the series, the
// core spans and the log's DRAM commands, stall phases and request
// lifecycles.
//
// Everything here is off the hot path. The sampler fires one event per
// epoch; the exporters run after the simulation has finished. None of it
// mutates simulated state, so enabling telemetry cannot perturb results
// — the determinism tests in bench pin this.
package telemetry

import (
	"gsdram/internal/flight"
	"gsdram/internal/latency"
	"gsdram/internal/metrics"
	"gsdram/internal/sim"
)

// CoreSpan is one core's busy interval over the whole run.
type CoreSpan struct {
	Core   int       `json:"core"`
	Start  sim.Cycle `json:"start"`
	Finish sim.Cycle `json:"finish"`
}

// Run bundles everything telemetry captured for one simulated run. The
// bench layer fills it in; the exporters consume it.
type Run struct {
	// Label identifies the run (e.g. "fig9/gsdram/pure-q"); it is also
	// the Perfetto process name. Labels must be unique within a batch.
	Label string

	// Registry is the run's metrics registry (final values).
	Registry *metrics.Registry

	// Series is the epoch time-series the Sampler produced.
	Series *Series

	// Cores lists per-core busy spans.
	Cores []CoreSpan

	// Latency is the run's request-lifecycle attribution recorder (span
	// histograms and core-stall stage counters). Nil when the run was
	// captured without one.
	Latency *latency.Recorder

	// Log is the rig's event log: the heads of its DRAM command, stall
	// phase and request lifecycle streams feed the Perfetto exporter,
	// and its seen counts say how much of each stream the heads hold.
	Log *flight.Recorder

	// End is the cycle the run finished at.
	End sim.Cycle
}

// Manifest describes how a batch of runs was produced, for the
// machine-readable JSON output. Params carries the experiment knobs as
// strings so the encoding stays deterministic and diffable.
type Manifest struct {
	Tool      string            `json:"tool"`
	GoVersion string            `json:"go_version"`
	Seed      uint64            `json:"seed"`
	Workers   int               `json:"workers"`
	Epoch     uint64            `json:"epoch_cycles,omitempty"`
	Params    map[string]string `json:"params,omitempty"`
}
