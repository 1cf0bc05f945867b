package telemetry

import (
	"gsdram/internal/metrics"
	"gsdram/internal/sim"
)

// DefaultEpoch is the default sampling interval in CPU cycles.
const DefaultEpoch sim.Cycle = 100_000

// Epoch is one snapshot of the registry's flattened sample row.
type Epoch struct {
	At     sim.Cycle `json:"at"`
	Values []uint64  `json:"values"`
}

// Series is a deterministic time-series of registry snapshots: one row
// per epoch, columns fixed at sampling start. Gauge columns store the
// two's-complement bit pattern of their int64 value (see Kinds).
type Series struct {
	Interval sim.Cycle      `json:"interval"`
	Columns  []string       `json:"columns"`
	Kinds    []metrics.Kind `json:"-"`
	Epochs   []Epoch        `json:"epochs"`
}

// Sampler snapshots a metrics registry every Interval cycles by
// scheduling itself on the event queue. The sample event reads counters
// and mutates nothing, so it cannot change simulation results: the only
// interaction with the rest of the system is that its timestamp becomes
// an event horizon, which the inline fast path already treats as a yield
// point without changing per-operation outcomes.
//
// The sampler stops rescheduling when it finds the queue empty after its
// own dispatch — an empty queue means the workload has drained and
// another tick would keep q.Run() alive forever. Call Finish once the
// run completes to record the final row.
type Sampler struct {
	q        *sim.EventQueue
	reg      *metrics.Registry
	interval sim.Cycle
	series   Series
	fire     func(now sim.Cycle)
}

// NewSampler returns a sampler for reg on q. interval <= 0 selects
// DefaultEpoch. The registry must be fully populated before Start.
func NewSampler(q *sim.EventQueue, reg *metrics.Registry, interval sim.Cycle) *Sampler {
	if interval <= 0 {
		interval = DefaultEpoch
	}
	s := &Sampler{q: q, reg: reg, interval: interval}
	s.series.Interval = interval
	s.fire = func(now sim.Cycle) {
		s.sample(now)
		if s.q.Len() > 0 {
			s.q.Schedule(now+s.interval, s.fire)
		}
	}
	return s
}

// Start fixes the column set and schedules the first tick one interval
// from now.
func (s *Sampler) Start() {
	s.series.Columns = s.reg.SampleColumns()
	s.series.Kinds = s.reg.SampleKinds()
	s.q.Schedule(s.q.Now()+s.interval, s.fire)
}

// sample appends one epoch row.
func (s *Sampler) sample(at sim.Cycle) {
	row := make([]uint64, 0, len(s.series.Columns))
	s.series.Epochs = append(s.series.Epochs, Epoch{At: at, Values: s.reg.SampleInto(row)})
}

// Finish records the final row at end (unless the last tick already
// landed there) so the series always covers the whole run.
func (s *Sampler) Finish(end sim.Cycle) {
	if n := len(s.series.Epochs); n > 0 && s.series.Epochs[n-1].At == end {
		return
	}
	s.sample(end)
}

// Series returns the collected time-series. The result is a copy that
// holds no reference to the sampler, so keeping it (e.g. in a run
// document) does not keep the sampler's registry, and through it the
// whole rig, alive.
func (s *Sampler) Series() *Series {
	out := s.series
	return &out
}
