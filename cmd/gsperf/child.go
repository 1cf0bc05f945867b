package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"gsdram/internal/bench"
	"gsdram/internal/farm"
	"gsdram/internal/imdb"
	"gsdram/internal/resultcache"
	"gsdram/internal/spec"
)

// childEnv marks a process as a gsperf child: the parent re-executes its
// own binary with this variable set, and the child's flags after it.
const childEnv = "GSPERF_CHILD"

// profileHz is the CPU profile rate of traced passes.
const profileHz = 500

// Child modes.
const (
	modeSetup = "setup" // time the workload's input constructors only
	modePass  = "pass"  // run the workload once
	modeTruth = "truth" // detailed twin of the sampled workload (for -update)
)

// maxErrors bounds the failure messages one child reports.
const maxErrors = 10

// report is what a child prints, as its only line of standard output.
// WallNS and CPUNS are normalised to the reference host speed (see
// calib.go); RawWallNS is the wall time as measured, and RefNS the median
// reference wall time around the work. All of them leave out the
// reference runs themselves.
type report struct {
	WallNS    int64             `json:"wall_ns"`
	CPUNS     int64             `json:"cpu_ns"`
	RawWallNS int64             `json:"raw_wall_ns"`
	RefNS     int64             `json:"ref_ns"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Digests   map[string]string `json:"digests,omitempty"`

	// SimCycles sums the simulated end cycles of the typed results;
	// RunCycles holds fig9/fig10 per-run cycles keyed exp/layout/index.
	SimCycles uint64            `json:"sim_cycles"`
	RunCycles map[string]uint64 `json:"run_cycles,omitempty"`
	// DetailFrac is the mean fraction of instructions sampled runs
	// simulated in detail.
	DetailFrac float64          `json:"detail_frac"`
	ExpWallNS  map[string]int64 `json:"exp_wall_ns,omitempty"`

	Programs   int               `json:"programs"`
	ColdPoints int               `json:"cold_points"`
	ColdNS     int64             `json:"cold_ns"`
	WarmPoints int               `json:"warm_points"`
	WarmNS     int64             `json:"warm_ns"`
	Cache      resultcache.Stats `json:"cache"`
	FarmSpanNS map[string]int64  `json:"farm_span_ns,omitempty"`

	Counters simCounters  `json:"counters,omitempty"`
	Runtime  runtimeStats `json:"runtime"`
	Spans    []spanRec    `json:"spans,omitempty"`
}

// spanRec is one of gsperf's own spans, offset from the child's start.
type spanRec struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// runtimeStats are the Go runtime's own costs over the child's life.
type runtimeStats struct {
	AllocMB   float64 `json:"alloc_mb"`
	GCCycles  uint64  `json:"gc_cycles"`
	GCCPUFrac float64 `json:"gc_cpu_frac"`
}

// pass records one child's operations while the workload runs. Results
// are kept and condensed (digests, counters) after the timed section.
type pass struct {
	cfg   config
	start time.Time
	// hostClock times the work; only the goroutine driving the workload
	// uses it.
	hostClock

	mu        sync.Mutex
	attempted int
	failed    int
	errors    []string
	outcomes  []keptOutcome
	spans     []spanRec
	programs  int
	farm      struct {
		coldNS, warmNS         int64
		coldPoints, warmPoints int
		docs                   [][]byte
		points                 []farm.Point
		cache                  resultcache.Stats
	}
}

type keptOutcome struct {
	key string
	out *spec.Outcome
}

// newPass starts timing a pass, normalised to the speed of ref unless
// ref is nil.
func newPass(c config, ref *reference) *pass {
	p := &pass{cfg: c, hostClock: newHostClock(ref)}
	p.start = p.segBegin
	return p
}

// do runs one operation, counting it, and records an error or a panic as
// a failed operation. It is safe for concurrent use.
func (p *pass) do(name string, op func() error) {
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return op()
	}()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failLocked(name, err)
	}
}

func (p *pass) fail(name string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failLocked(name, err)
}

func (p *pass) failLocked(name string, err error) {
	p.failed++
	if len(p.errors) < maxErrors {
		p.errors = append(p.errors, name+": "+err.Error())
	}
}

// keep holds an experiment outcome for condensing after the timed run.
func (p *pass) keep(key string, out *spec.Outcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.outcomes = append(p.outcomes, keptOutcome{key, out})
}

// span records one of gsperf's own spans, from begin to now.
func (p *pass) span(name string, begin time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spans = append(p.spans, spanRec{
		Name:    name,
		StartNS: begin.Sub(p.start).Nanoseconds(),
		DurNS:   time.Since(begin).Nanoseconds(),
	})
}

// condense builds the report from what the pass kept.
func (p *pass) condense() *report {
	r := &report{
		WallNS:     int64(p.wallNS),
		CPUNS:      int64(p.cpuNS),
		RawWallNS:  int64(p.rawNS),
		RefNS:      int64(median(p.refWalls)),
		Digests:    map[string]string{},
		RunCycles:  map[string]uint64{},
		ExpWallNS:  map[string]int64{},
		FarmSpanNS: map[string]int64{},
		Counters:   simCounters{},
		Programs:   p.programs,
		ColdPoints: p.farm.coldPoints,
		ColdNS:     p.farm.coldNS,
		WarmPoints: p.farm.warmPoints,
		WarmNS:     p.farm.warmNS,
		Cache:      p.farm.cache,
		Spans:      p.spans,
	}
	var fracSum float64
	var fracN int
	for _, k := range p.outcomes {
		d, err := resultDigest(k.out.Result)
		if err != nil {
			p.fail(k.key, err)
			continue
		}
		r.Digests[k.key] = d
		r.SimCycles += simCycles(k.key, k.out.Result, r.RunCycles)
		r.ExpWallNS[k.key] += k.out.WallNS
		for _, e := range k.out.Sampled {
			fracSum += e.Result.SampledFraction()
			fracN++
		}
		for _, t := range k.out.Telemetry {
			r.Counters.addRun(t.EndCycle, t.Metrics)
		}
	}
	if fracN > 0 {
		r.DetailFrac = fracSum / float64(fracN)
	}
	for i, doc := range p.farm.docs {
		if doc == nil {
			continue
		}
		pt := p.farm.points[i]
		key := fmt.Sprintf("%s/%d", pt.Spec.Experiment, i)
		if err := condenseFarmDoc(doc, key, r); err != nil {
			p.fail(key, err)
		}
		for _, s := range pt.Spans {
			r.FarmSpanNS[s.Name] += s.DurNS
		}
	}
	r.Attempted, r.Failed, r.Errors = p.attempted, p.failed, p.errors
	return r
}

// condenseFarmDoc digests a farm point's stored run document and adds
// its telemetry to the counters.
func condenseFarmDoc(doc []byte, key string, r *report) error {
	var d struct {
		Experiments []struct {
			Result    json.RawMessage `json:"result"`
			Telemetry []struct {
				EndCycle uint64         `json:"end_cycle"`
				Metrics  map[string]any `json:"metrics"`
			} `json:"telemetry"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return err
	}
	if len(d.Experiments) != 1 {
		return fmt.Errorf("document holds %d experiments, want 1", len(d.Experiments))
	}
	e := d.Experiments[0]
	dg, err := digestJSON(e.Result)
	if err != nil {
		return err
	}
	r.Digests[key] = dg
	for _, t := range e.Telemetry {
		r.Counters.addRun(t.EndCycle, t.Metrics)
	}
	return nil
}

// resultDigest is the SHA-256 of a typed result's JSON with every echoed
// Opts removed: Opts carries Workers and the capture handle, neither of
// which changes a simulated value.
func resultDigest(result any) (string, error) {
	b, err := json.Marshal(result)
	if err != nil {
		return "", err
	}
	return digestJSON(b)
}

func digestJSON(b []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber() // keep 64-bit checksums exact
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return "", err
	}
	b, err := json.Marshal(stripOpts(tree))
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func stripOpts(v any) any {
	switch v := v.(type) {
	case map[string]any:
		delete(v, "Opts")
		for k, x := range v {
			v[k] = stripOpts(x)
		}
	case []any:
		for i, x := range v {
			v[i] = stripOpts(x)
		}
	}
	return v
}

// simCycles returns the simulated cycles of a typed result, summed over
// its runs, and records fig9/fig10 per-run cycles in runs.
func simCycles(key string, result any, runs map[string]uint64) uint64 {
	var total uint64
	perRun := func(byLayout map[imdb.Layout][]bench.RunMetrics) {
		for _, l := range allLayouts {
			for i, m := range byLayout[l] {
				runs[fmt.Sprintf("%s/%s/%d", key, l, i)] = m.Cycles
				total += m.Cycles
			}
		}
	}
	switch r := result.(type) {
	case *bench.Fig9Result:
		perRun(r.Runs)
	case *bench.Fig10Result:
		perRun(r.Runs)
	case *bench.Fig11Result:
		for _, c := range r.AnalyticsCycles {
			total += c[0] + c[1]
		}
	case *bench.IndexedResult:
		for _, c := range r.Cycles {
			total += c
		}
	}
	return total
}

// readRuntime reads the runtime's allocation and GC totals; refCPU is
// the CPU time the reference took, which the GC share leaves out.
func readRuntime(refCPU time.Duration) runtimeStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	st := runtimeStats{AllocMB: val(0) / (1 << 20), GCCycles: uint64(val(1))}
	if busy := val(3) - val(4) - refCPU.Seconds(); busy > 0 {
		st.GCCPUFrac = val(2) / busy
	}
	return st
}

// childMain runs one child: parse the parent's flags, run the mode, and
// print the report as one JSON line.
func childMain(args []string) error {
	fs := flag.NewFlagSet("gsperf child", flag.ContinueOnError)
	mode := fs.String("mode", modePass, "setup, pass or truth")
	name := fs.String("workload", "", "workload name")
	var c config
	fs.Uint64Var(&c.seed, "seed", 42, "workload seed")
	fs.IntVar(&c.workers, "workers", runtime.NumCPU(), "worker goroutines")
	fs.BoolVar(&c.quick, "quick", false, "reduced scale")
	fs.BoolVar(&c.capture, "capture", false, "telemetry capture")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}

	var prof *os.File
	if *cpuProfile != "" {
		var err error
		if prof, err = os.Create(*cpuProfile); err != nil {
			return err
		}
		defer prof.Close() // error paths; the success path checks Close
		// StartCPUProfile asks for its default rate and is refused, with a
		// note on standard error, because this rate is already set.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
	}
	// A profiled pass is not timed, so it skips the reference, whose
	// samples would count as host time of no layer.
	var ref *reference
	if prof == nil {
		ref = newReference()
	}
	p := newPass(c, ref)
	var err error
	switch *mode {
	case modeSetup:
		err = w.setup(c)
		p.span("setup "+w.name, p.start)
	case modePass:
		err = w.run(p)
	case modeTruth:
		err = specPass(p, truthSpec, "fig9", "fig10")
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	p.tick(true)
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return err
		}
	}
	if err != nil {
		p.fail(w.name, err)
	}
	r := p.condense()
	r.Runtime = readRuntime(time.Duration(p.refCPUNS))
	return json.NewEncoder(os.Stdout).Encode(r)
}

// parseReport reads a child's report from its standard output.
func parseReport(out []byte) (*report, error) {
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	var r report
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("bad report %q: %v", out, err)
	}
	return &r, nil
}
