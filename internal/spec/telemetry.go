package spec

import (
	"gsdram/internal/flight"
	"gsdram/internal/latency"
	"gsdram/internal/telemetry"
)

// TelemetryEntry is one simulated run's telemetry in a run document
// (the `telemetry` section of gsbench -json output).
type TelemetryEntry struct {
	Label        string            `json:"label"`
	EndCycle     uint64            `json:"end_cycle"`
	CommandsSeen uint64            `json:"dram_commands_seen"`
	PhasesSeen   uint64            `json:"stall_phases_seen"`
	Metrics      map[string]any    `json:"metrics"`
	Series       *telemetry.Series `json:"series,omitempty"`
	Latency      *LatencySummary   `json:"latency,omitempty"`
}

// NewTelemetryEntry condenses one captured run into its document entry.
func NewTelemetryEntry(r *telemetry.Run) TelemetryEntry {
	return TelemetryEntry{
		Label:        r.Label,
		EndCycle:     uint64(r.End),
		CommandsSeen: r.Log.Seen(flight.CompDDR),
		PhasesSeen:   r.Log.PhasesSeen(),
		Metrics:      r.Registry.Export(),
		Series:       r.Series,
		Latency:      SummarizeLatency(r.Latency),
	}
}

// LatencySummary is the latency attribution section of one telemetry
// entry and the data behind the `gsbench latency` report tables.
type LatencySummary struct {
	// RequestsSeen counts every DRAM-bound request observed (traces may
	// be capped; this is not).
	RequestsSeen uint64 `json:"requests_seen"`
	// Classes maps the pattern class ("p0" for ordinary cache lines,
	// "gather" for non-zero pattern IDs) to its latency distribution.
	Classes map[string]LatencyClass `json:"classes,omitempty"`
	// CoreStalls[i] maps stage name to the cycles core i spent stalled on
	// that stage; the values sum exactly to the core's mem_stall_cycles.
	CoreStalls []map[string]uint64 `json:"core_stalls,omitempty"`
}

// LatencyClass is one pattern class's end-to-end latency distribution
// plus its span decomposition.
type LatencyClass struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
	// Spans maps span name to its share of the class's total cycles.
	Spans map[string]LatencySpan `json:"spans,omitempty"`
}

// LatencySpan summarises one lifecycle span within a class.
type LatencySpan struct {
	Mean  float64 `json:"mean"`
	P95   uint64  `json:"p95"`
	Share float64 `json:"share"`
}

// SummarizeLatency condenses a recorder into the JSON shape. Returns
// nil for runs captured without latency attribution.
func SummarizeLatency(rec *latency.Recorder) *LatencySummary {
	if rec == nil {
		return nil
	}
	out := &LatencySummary{
		RequestsSeen: rec.Seen(),
		Classes:      map[string]LatencyClass{},
	}
	for _, gather := range []bool{false, true} {
		total, spans := rec.Class(gather)
		if total.Count() == 0 {
			continue
		}
		lc := LatencyClass{
			Count: total.Count(),
			Mean:  total.Mean(),
			P50:   total.Quantile(0.50),
			P95:   total.Quantile(0.95),
			P99:   total.Quantile(0.99),
			Spans: map[string]LatencySpan{},
		}
		for si, h := range spans {
			if h.Sum() == 0 {
				continue
			}
			lc.Spans[latency.Span(si).String()] = LatencySpan{
				Mean:  h.Mean(),
				P95:   h.Quantile(0.95),
				Share: float64(h.Sum()) / float64(total.Sum()),
			}
		}
		name := "p0"
		if gather {
			name = "gather"
		}
		out.Classes[name] = lc
	}
	for core := 0; core < rec.Cores(); core++ {
		m := map[string]uint64{}
		for st := latency.Stage(0); st < latency.NumStages; st++ {
			if v := rec.StallCycles(core, st); v > 0 {
				m[st.String()] = v
			}
		}
		out.CoreStalls = append(out.CoreStalls, m)
	}
	return out
}
