// Package bench contains the experiment runners that regenerate every
// table and figure of the paper's evaluation (§5): Table 1 (system
// configuration), Figure 7 (gather map), Figure 9 (transactions),
// Figure 10 (analytics), Figure 11 (HTAP), Figure 12 (performance/energy
// summary), Figure 13 (GEMM), plus the §5.3 key-value workload and the
// §3.2 shuffling ablation.
//
// Each runner returns structured results plus a rendered text table, so
// both cmd/gsbench and the Go benchmarks share one implementation.
package bench

import (
	"fmt"
	"sync"

	"gsdram/internal/cpu"
	"gsdram/internal/energy"
	"gsdram/internal/imdb"
	"gsdram/internal/machine"
	"gsdram/internal/memctrl"
	"gsdram/internal/memsys"
	"gsdram/internal/rig"
	"gsdram/internal/runner"
	"gsdram/internal/sample"
	"gsdram/internal/sim"
)

// Options scales the experiments. The zero value is unusable; start from
// DefaultOptions.
type Options struct {
	// Tuples is the database table size. The paper uses 1048576 (a 64 MB
	// table); the default is 131072 (8 MB) so the full suite runs in
	// minutes. Shapes are table-size independent once the table exceeds
	// the L2.
	Tuples int
	// Txns is the number of transactions per Figure 9 run (paper: 10000).
	Txns int
	// GemmSizes are the matrix dimensions for Figure 13 (paper: 32-1024).
	GemmSizes []int
	// Seed drives all workload randomness.
	Seed uint64
	// Workers is the number of concurrent simulation runs per experiment.
	// Zero selects runtime.GOMAXPROCS(0); 1 reproduces the historical
	// serial execution order bit-for-bit. Every worker count produces
	// identical results: runs are independent rigs whose seeds depend only
	// on the run index (see internal/runner).
	Workers int
	// Sample, when non-nil, switches the runners that support it (Figure
	// 9, Figure 10, the pattern sweep) to interval sampling
	// (internal/sample): each run's Cycles and Energy become the sampled
	// extrapolation, and the result carries the per-run estimates with
	// their confidence intervals. Sampled runs are untelemetered. The
	// per-run placement seed is derived from Sample.Seed and the run
	// index, so results stay identical at any worker count.
	Sample *sample.Config
	// Capture, when non-nil, enables telemetry capture for this batch's
	// labelled runs: every labelled rig records its metrics registry,
	// epoch series, and DRAM/stall traces into the capture, drained with
	// Capture.Drain after the runner returns. Capture is per-batch state
	// (never serialized, never part of a spec hash); concurrent batches
	// with independent captures do not serialize on any global switch.
	// Telemetry observes without mutating — results are bit-identical
	// with capture on or off.
	Capture *Capture
	// NoInline disables every core's event-horizon fast path (see
	// internal/cpu): each op then schedules through the event queue,
	// exactly reproducing the pure event-driven execution. Results are
	// bit-identical either way; it backs gsbench -noinline and the
	// equivalence tests. Sampled runs ignore it.
	NoInline bool `json:"-"`
	// L2Latency, when non-zero, overrides the model's L2 hit latency in
	// CPU cycles on every rig of the batch. It is an ablation knob for
	// regression forensics: perturbing one latency stage on purpose gives
	// `gsbench explain` a known-cause delta to attribute. It changes
	// results.
	L2Latency uint64 `json:"-"`
}

// pool returns the worker pool the experiment's runs are submitted to.
func (o Options) pool() runner.Pool { return runner.Pool{Workers: o.Workers} }

// DefaultOptions returns the default experiment scale.
func DefaultOptions() Options {
	return Options{
		Tuples:    131072,
		Txns:      10000,
		GemmSizes: []int{32, 64, 128, 256},
		Seed:      42,
	}
}

// Validate reports whether the options describe a runnable experiment
// scale; the spec layer (internal/spec), and through it the CLI, defers
// to it so they cannot drift.
func (o Options) Validate() error {
	if o.Tuples <= 0 {
		return fmt.Errorf("tuples must be positive, got %d", o.Tuples)
	}
	if o.Txns <= 0 {
		return fmt.Errorf("txns must be positive, got %d", o.Txns)
	}
	if len(o.GemmSizes) == 0 {
		return fmt.Errorf("at least one GEMM size is required")
	}
	for _, n := range o.GemmSizes {
		if n <= 0 {
			return fmt.Errorf("GEMM sizes must be positive, got %d", n)
		}
	}
	if o.Workers < 0 {
		return fmt.Errorf("workers must be >= 0, got %d", o.Workers)
	}
	if o.Sample != nil {
		return o.Sample.Validate()
	}
	return nil
}

// QuickOptions returns a reduced scale for unit tests and -short runs.
func QuickOptions() Options {
	return Options{
		Tuples:    8192,
		Txns:      500,
		GemmSizes: []int{32, 64},
		Seed:      42,
	}
}

// RunMetrics captures one simulated run of the event-driven system.
type RunMetrics struct {
	Cycles    uint64 // runtime of the measured core(s)
	CoreStats []cpu.Stats
	Mem       memsys.Stats
	Ctrl      memctrl.Stats
	Energy    energy.Report
}

// rigTemplates caches one populated machine+DB per (layout, tuples):
// population is deterministic, so every run with the same key starts from
// bit-identical state whether it clones the template or rebuilds from
// scratch, and a clone, which shares the template's rows, is far cheaper
// than re-running the per-line functional writes. The cache is shared
// across experiments and guarded for the concurrent worker pool; the lock
// also serialises Clone, which freezes the template's modules.
var rigTemplates struct {
	sync.Mutex
	m map[rigKey]*imdb.DB
}

type rigKey struct {
	layout imdb.Layout
	tuples int
}

// templateDB returns a clone of the populated template for (layout,
// tuples), building the template on first use.
func templateDB(layout imdb.Layout, tuples int) (*imdb.DB, error) {
	rigTemplates.Lock()
	defer rigTemplates.Unlock()
	key := rigKey{layout: layout, tuples: tuples}
	tpl := rigTemplates.m[key]
	if tpl == nil {
		mach, err := machine.Default()
		if err != nil {
			return nil, err
		}
		tpl, err = imdb.New(mach, layout, tuples)
		if err != nil {
			return nil, err
		}
		if rigTemplates.m == nil {
			rigTemplates.m = make(map[rigKey]*imdb.DB)
		}
		rigTemplates.m[key] = tpl
	}
	return tpl.Clone(), nil
}

// newRig builds a rig whose memory system is cfg with the batch's
// overrides (Options.L2Latency) applied. A non-empty label names the run
// for telemetry capture (e.g. "fig9/GS-DRAM/50-25-25") and must be
// unique within the batch; an empty label builds an untelemetered rig
// even when the batch has a capture context. Every run gets its own rig,
// so experiments are independent.
func newRig(opts Options, label string, cfg memsys.Config) (*rig.Rig, error) {
	if opts.L2Latency > 0 {
		cfg.L2Latency = sim.Cycle(opts.L2Latency)
	}
	ro := opts.Capture.forRig(label)
	ro.NoInline = opts.NoInline
	return rig.New(cfg, ro)
}

// imdbRig clones the populated (layout, opts.Tuples) table and builds a
// rig for it (see newRig).
func imdbRig(opts Options, layout imdb.Layout, label string, cfg memsys.Config) (*imdb.DB, *rig.Rig, error) {
	db, err := templateDB(layout, opts.Tuples)
	if err != nil {
		return nil, nil, err
	}
	r, err := newRig(opts, label, cfg)
	return db, r, err
}

// run starts one core per stream on r (core i runs streams[i]) with an
// sbCap-entry store buffer (0 = blocking stores), runs the rig to
// completion and measures it.
func run(r *rig.Rig, sbCap int, streams ...cpu.Stream) RunMetrics {
	cores := make([]*cpu.Core, len(streams))
	for i, s := range streams {
		cores[i] = cpu.NewWithStoreBuffer(i, r.Queue(), r.Mem(), s, nil, sbCap)
	}
	if err := r.Run(cores...); err != nil {
		panic("bench: " + err.Error())
	}
	m := RunMetrics{Mem: r.Mem().Stats(), Ctrl: r.Mem().MemStats()}
	for _, c := range cores {
		st := c.Stats()
		m.CoreStats = append(m.CoreStats, st)
		if rt := uint64(st.FinishCycle); rt > m.Cycles {
			m.Cycles = rt
		}
	}
	m.Energy = energy.Estimate(r.Activity(sim.Cycle(m.Cycles)), energy.DefaultDRAM(), energy.DefaultCPU())
	return m
}

// htap runs Figure 11's hybrid mix on a two-core rig: a one-column
// analytics scan on core 0 and an unbounded 1-read/1-write transaction
// stream on core 1, which stops when the scan completes. It returns the
// scan's completion cycle and the transaction throughput (txns/s).
func htap(r *rig.Rig, db *imdb.DB, seed uint64) (sim.Cycle, float64, error) {
	as, err := db.AnalyticsStream([]int{0}, nil)
	if err != nil {
		return 0, 0, err
	}
	var tr imdb.TxnResult
	ts, err := db.TransactionStream(imdb.TxnMix{RO: 1, WO: 1}, 0 /* unbounded */, seed, &tr)
	if err != nil {
		return 0, 0, err
	}
	txn := cpu.New(1, r.Queue(), r.Mem(), ts, nil)
	var done sim.Cycle
	ana := cpu.New(0, r.Queue(), r.Mem(), as, func(now sim.Cycle) {
		done = now
		txn.Stop()
	})
	if err := r.Run(ana, txn); err != nil {
		return 0, 0, err
	}
	return done, float64(tr.Completed) / (float64(done) / 4e9), nil
}

// layouts is the fixed comparison order used by every IMDB figure.
var layouts = []imdb.Layout{imdb.RowStore, imdb.ColumnStore, imdb.GSStore}

// checkSum panics if a functional analytics result does not match the
// closed form — every benchmark run double-checks data correctness.
func checkSums(res *imdb.AnalyticsResult, tuples int, columns []int) {
	for i, f := range columns {
		want := imdb.ExpectedColumnSum(tuples, f)
		if res.Sums[i] != want {
			panic(fmt.Sprintf("bench: analytics sum mismatch: column %d = %d, want %d", f, res.Sums[i], want))
		}
	}
}
