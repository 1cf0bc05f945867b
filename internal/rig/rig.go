// Package rig builds and runs one simulated system: the event queue, the
// memory system on it (internal/memsys) and the cores that drive it. It
// is the only code that does. The experiment runners (internal/bench),
// the differential checker (internal/stress) and examples/figure8 all
// build through New and run through Run, so a knob or a tap added here
// reaches every timed run.
package rig

import (
	"fmt"

	"gsdram/internal/cpu"
	"gsdram/internal/energy"
	"gsdram/internal/flight"
	"gsdram/internal/memsys"
	"gsdram/internal/metrics"
	"gsdram/internal/sim"
	"gsdram/internal/telemetry"
)

// Options are a rig's settings beyond its memory system.
type Options struct {
	// NoInline disables every core's event-horizon fast path (see
	// internal/cpu): each op then schedules through the event queue,
	// exactly reproducing the pure event-driven execution. Results are
	// bit-identical either way.
	NoInline bool
	// Log, when non-nil, is the rig's event log (internal/flight): the
	// memory system, its controller and every core record into it.
	Log *flight.Recorder
	// Telemetry, when non-nil, records the run.
	Telemetry *Telemetry
}

// Telemetry asks a rig to record its run: the rig builds a metrics
// registry that every component registers into, live energy gauges and
// an epoch sampler, and hands the finished run, with the rig's event
// log, to Done.
type Telemetry struct {
	Label string    // names the run
	Epoch sim.Cycle // the epoch series' interval; 0 selects telemetry.DefaultEpoch
	Done  func(*telemetry.Run)
}

// Rig is one simulated system; call Run at most once. Every run gets its
// own rig, so runs are independent and may execute concurrently.
type Rig struct {
	q     sim.EventQueue
	mem   *memsys.System
	opts  Options
	reg   *metrics.Registry
	cores []*cpu.Core
}

// New builds a rig whose memory system is cfg with the rig's taps in
// place of cfg's: opts.Log as the event log and, on a telemetered rig, a
// fresh metrics registry.
func New(cfg memsys.Config, opts Options) (*Rig, error) {
	r := &Rig{opts: opts}
	if opts.Telemetry != nil {
		r.reg = metrics.New()
	}
	cfg.Log, cfg.Metrics = opts.Log, r.reg
	mem, err := memsys.New(cfg, &r.q)
	if err != nil {
		return nil, err
	}
	r.mem = mem
	return r, nil
}

// Queue returns the rig's event queue, which its cores are built on.
func (r *Rig) Queue() *sim.EventQueue { return &r.q }

// Mem returns the rig's memory system, which its cores are built on.
func (r *Rig) Mem() *memsys.System { return r.mem }

// Run starts the cores (cores[i] must have core ID i and be built on the
// rig's queue and memory system) in ID order at cycle 0, runs the queue
// dry and, on a telemetered rig, hands the run to Telemetry.Done. It
// returns an error naming the first core that did not finish.
func (r *Rig) Run(cores ...*cpu.Core) error {
	r.cores = cores
	for _, c := range cores {
		c.SetNoInline(r.opts.NoInline)
		c.Start(0)
	}
	t := r.opts.Telemetry
	var sampler *telemetry.Sampler
	if t != nil {
		for i, c := range cores {
			c.RegisterMetrics(r.reg, fmt.Sprintf("core.%d", i))
		}
		energy.RegisterLive(r.reg, func() energy.Activity {
			return r.Activity(r.q.Now())
		}, energy.DefaultDRAM(), energy.DefaultCPU())
		sampler = telemetry.NewSampler(&r.q, r.reg, t.Epoch)
		sampler.Start()
	}
	r.q.Run()
	if t != nil {
		sampler.Finish(r.q.Now())
		run := &telemetry.Run{
			Label:    t.Label,
			Registry: r.reg,
			Series:   sampler.Series(),
			Latency:  r.mem.LatencyRecorder(),
			Log:      r.opts.Log,
			End:      r.q.Now(),
		}
		for i, c := range cores {
			st := c.Stats()
			run.Cores = append(run.Cores, telemetry.CoreSpan{Core: i, Start: st.StartCycle, Finish: st.FinishCycle})
		}
		t.Done(run)
	}
	for i, c := range cores {
		if !c.Stats().Finished {
			return fmt.Errorf("core %d did not finish", i)
		}
	}
	return nil
}

// Activity is the energy model's input for the cores Run started, over
// the given runtime.
func (r *Rig) Activity(runtime sim.Cycle) energy.Activity {
	var instrs uint64
	for _, c := range r.cores {
		instrs += c.Stats().Instructions
	}
	l1, l2 := r.mem.CacheStats()
	return energy.Activity{
		Runtime:      runtime,
		FreqGHz:      4,
		Cores:        len(r.cores),
		Instructions: instrs,
		L1:           l1,
		L2:           l2,
		Mem:          r.mem.MemStats(),
	}
}
