package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gsdram/internal/telemetry"
)

func main() {
	var err error
	switch {
	case os.Getenv(childEnv) != "":
		err = childMain(os.Args[1:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareCmd(os.Args[2:], os.Stdout)
	default:
		err = benchMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsperf:", err)
		os.Exit(1)
	}
}

// options are the parent's settings.
type options struct {
	seed      uint64
	repeats   int
	seconds   float64
	workers   int
	workloads []workload
	traceDir  string
	jsonOut   string
	quick     bool // reduced scale, for the smoke test only
}

func benchMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gsperf", flag.ContinueOnError)
	var o options
	fs.Uint64Var(&o.seed, "seed", 42, "workload seed: every input derives from it")
	fs.IntVar(&o.repeats, "repeats", 3, "passes per workload, each in a fresh child process")
	fs.Float64Var(&o.seconds, "seconds", 0, "if > 0, start passes until this many seconds have passed instead of running -repeats")
	fs.IntVar(&o.workers, "workers", runtime.NumCPU(), "worker goroutines of the experiments, the farm engine and stress")
	names := fs.String("workloads", "", "comma-separated workloads to run (default all)")
	fs.StringVar(&o.traceDir, "trace", "", "after the timed passes, run one traced pass per workload and write profiles, layers.json and spans.json to DIR")
	fs.StringVar(&o.jsonOut, "json", "", "write the results document (the input of gsperf compare) to FILE")
	update := fs.Bool("update", false, "regenerate cmd/gsperf/testdata/expected.json (run from the repository root)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.repeats < 1 || o.workers < 1 || o.seconds < 0 {
		return fmt.Errorf("-repeats and -workers must be positive and -seconds not negative")
	}
	if *update {
		return updateExpected(filepath.Join("cmd", "gsperf", "testdata", "expected.json"), o.workers)
	}
	ws, err := selectWorkloads(*names)
	if err != nil {
		return err
	}
	o.workloads = ws
	doc, err := runBenchmark(o, stdout)
	if err != nil {
		return err
	}
	if o.jsonOut != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(doc.Workloads) == 1 {
		return writeResultLine(stdout, doc.Workloads[0], o.traceDir != "")
	}
	return nil
}

func selectWorkloads(list string) ([]workload, error) {
	if list == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(list, ",") {
		w, ok := lookupWorkload(strings.TrimSpace(name))
		if !ok {
			var valid []string
			for _, w := range workloads {
				valid = append(valid, w.name)
			}
			return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		out = append(out, w)
	}
	return out, nil
}

// document is the results document -json writes and compare reads.
type document struct {
	Tool      string            `json:"tool"`
	GoVersion string            `json:"go_version"`
	Seed      uint64            `json:"seed"`
	Workers   int               `json:"workers"`
	Workloads []*workloadResult `json:"workloads"`
}

// workloadResult is one workload's measurements.
type workloadResult struct {
	Name string `json:"name"`
	// Digests is "checked" when the seed has committed result digests and
	// "unchecked" otherwise; passes are always checked against each other.
	Digests   string                 `json:"digests"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]*metricStat `json:"metrics"`
	// RawWallS is each pass's wall time as measured, before the
	// normalisation wall_s applies, and RefS the median reference time
	// during the pass.
	RawWallS []float64 `json:"raw_wall_s"`
	RefS     []float64 `json:"ref_s"`
	// Layers holds the per-layer metrics of the traced pass (-trace).
	Layers         map[string]float64 `json:"layers,omitempty"`
	ProfileSamples int64              `json:"profile_samples,omitempty"`
}

// metricStat summarises one metric over a workload's passes.
type metricStat struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func (w *workloadResult) add(name string, v float64) {
	m, _ := lookupEndMetric(name)
	st := w.Metrics[name]
	if st == nil {
		st = &metricStat{Unit: m.Unit}
		w.Metrics[name] = st
	}
	st.Samples = append(st.Samples, v)
	st.Median, st.Max, st.N = median(st.Samples), maxOf(st.Samples), len(st.Samples)
}

func (w *workloadResult) addErrors(errs ...string) {
	for _, e := range errs {
		if len(w.Errors) < maxErrors {
			w.Errors = append(w.Errors, e)
		}
	}
}

// child is one finished child process.
type child struct {
	rep   *report
	rssMB float64
}

// launcher launches children and collects gsperf's own spans.
type launcher struct {
	o      options
	exe    string
	began  time.Time
	tracks []telemetry.SpanTrack
}

// run executes one child of this binary and returns its report.
func (r *launcher) run(w workload, mode string, extra ...string) (*child, error) {
	args := []string{
		"-mode", mode, "-workload", w.name,
		"-seed", fmt.Sprint(r.o.seed), "-workers", fmt.Sprint(r.o.workers),
	}
	if r.o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(r.exe, append(args, extra...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	launched := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s child: %v\n%s", w.name, mode, err, lastLines(stderr.String(), 20))
	}
	rep, err := parseReport(stdout.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%s %s child: %v\n%s", w.name, mode, err, lastLines(stderr.String(), 20))
	}
	c := &child{rep: rep}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	r.record(fmt.Sprintf("%s %s %d", w.name, mode, len(r.tracks)), launched, rep.Spans)
	return c, nil
}

// record keeps a child's spans on their own track of the span trace.
func (r *launcher) record(name string, launched time.Time, spans []spanRec) {
	base := launched.Sub(r.began).Nanoseconds()
	t := telemetry.SpanTrack{Name: name}
	t.Spans = append(t.Spans, telemetry.TrackSpan{
		Name: "child", StartUS: uint64(base / 1000), DurUS: uint64(time.Since(launched).Microseconds()),
	})
	for _, s := range spans {
		t.Spans = append(t.Spans, telemetry.TrackSpan{
			Name: s.Name, StartUS: uint64((base + s.StartNS) / 1000), DurUS: uint64(s.DurNS / 1000),
		})
	}
	r.tracks = append(r.tracks, t)
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// runBenchmark measures every selected workload and prints the report.
func runBenchmark(o options, stdout io.Writer) (*document, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	r := &launcher{o: o, exe: exe, began: time.Now()}
	doc := &document{Tool: "gsperf", GoVersion: runtime.Version(), Seed: o.seed, Workers: o.workers}
	layerDocs := map[string]any{}
	for _, w := range o.workloads {
		res, passes, err := r.measure(w, exp)
		if err != nil {
			return nil, err
		}
		if o.traceDir != "" {
			if err := r.trace(w, res, passes); err != nil {
				return nil, err
			}
			layerDocs[w.name] = map[string]any{"profile_samples": res.ProfileSamples, "metrics": res.Layers}
		}
		printResult(stdout, res)
		doc.Workloads = append(doc.Workloads, res)
	}
	if o.traceDir != "" {
		if err := writeJSONFile(filepath.Join(o.traceDir, "layers.json"), layerDocs); err != nil {
			return nil, err
		}
		f, err := os.Create(filepath.Join(o.traceDir, "spans.json"))
		if err != nil {
			return nil, err
		}
		if err := telemetry.WriteSpanTrace(f, "gsperf", r.tracks); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// setupsPerPass is how many setup children run before each pass child:
// a setup takes milliseconds, so its median needs more samples than the
// passes give.
const setupsPerPass = 3

// measure runs a workload's setup and pass children, repeats times or
// for o.seconds, and checks every pass's digests against the committed
// ones and against the first pass.
func (r *launcher) measure(w workload, exp *expected) (*workloadResult, []*child, error) {
	res := &workloadResult{Name: w.name, Digests: "unchecked", Metrics: map[string]*metricStat{}}
	want := exp.digests(r.o, w.name)
	if want != nil {
		res.Digests = "checked"
	}
	truth := exp.truth(r.o)
	var passes []*child
	var first map[string]string
	begin := time.Now()
	var cycle time.Duration // the last repeat's setups and pass
	for i := 0; ; i++ {
		if r.o.seconds > 0 {
			// Start another repeat only if it will likely end within half
			// a repeat of the time, so a run lasts about o.seconds.
			if i > 0 && (time.Since(begin)+cycle/2).Seconds() >= r.o.seconds {
				break
			}
		} else if i >= r.o.repeats {
			break
		}
		repeatBegin := time.Now()
		for j := 0; j < setupsPerPass; j++ {
			s, err := r.run(w, modeSetup)
			if err != nil {
				return nil, nil, err
			}
			if s.rep.Failed > 0 {
				return nil, nil, fmt.Errorf("%s setup failed: %s", w.name, strings.Join(s.rep.Errors, "; "))
			}
			res.add("setup_s", float64(s.rep.WallNS)/1e9)
		}
		p, err := r.run(w, modePass)
		if err != nil {
			return nil, nil, err
		}
		cycle = time.Since(repeatBegin)
		passes = append(passes, p)
		rep := p.rep
		failed := rep.Failed
		res.addErrors(rep.Errors...)
		for k, d := range rep.Digests {
			var bad []string
			if want != nil && want[k] != d {
				bad = append(bad, "differs from the committed digest")
			}
			if first != nil && first[k] != d {
				bad = append(bad, "differs from the first pass")
			}
			if bad != nil {
				failed++
				res.addErrors(fmt.Sprintf("%s/%s: result digest %s", w.name, k, strings.Join(bad, " and ")))
			}
		}
		if first == nil {
			first = rep.Digests
		}
		res.Attempted += rep.Attempted
		res.Failed += failed

		wall := float64(rep.WallNS) / 1e9
		res.RawWallS = append(res.RawWallS, float64(rep.RawWallNS)/1e9)
		res.RefS = append(res.RefS, float64(rep.RefNS)/1e9)
		res.add("wall_s", wall)
		res.add("cpu_s", float64(rep.CPUNS)/1e9)
		res.add("max_rss_mb", p.rssMB)
		res.add("fail_frac", ratio(float64(failed), float64(rep.Attempted)))
		for _, m := range endToEnd {
			if !m.appliesTo(w.name) {
				continue
			}
			switch m.Name {
			case "sim_mcycles_per_s":
				res.add(m.Name, float64(rep.SimCycles)/1e6/wall)
			case "programs_per_s":
				res.add(m.Name, float64(rep.Programs)/wall)
			case "cold_points_per_s":
				res.add(m.Name, float64(rep.ColdPoints)/(float64(rep.ColdNS)/1e9))
			case "warm_points_per_s":
				res.add(m.Name, float64(rep.WarmPoints)/(float64(rep.WarmNS)/1e9))
			case "sample_err_pct":
				if truth != nil {
					res.add(m.Name, sampleErrPct(rep.RunCycles, truth))
				}
			}
		}
	}
	return res, passes, nil
}

// sampleErrPct is the largest relative error of a sampled run's cycles
// against the detailed truth, in percent.
func sampleErrPct(sampled, truth map[string]uint64) float64 {
	worst := 0.0
	for k, s := range sampled {
		if d, ok := truth[k]; ok && d > 0 {
			worst = math.Max(worst, 100*math.Abs(float64(s)-float64(d))/float64(d))
		}
	}
	return worst
}

// trace runs one traced pass of w — telemetry capture on and a CPU
// profile — and derives the per-layer metrics from it and from the
// untraced passes.
func (r *launcher) trace(w workload, res *workloadResult, passes []*child) error {
	if err := os.MkdirAll(r.o.traceDir, 0o755); err != nil {
		return err
	}
	profPath := filepath.Join(r.o.traceDir, w.name+".pprof")
	t, err := r.run(w, modePass, "-capture", "-cpuprofile", profPath)
	if err != nil {
		return err
	}
	// Capture observes without mutating: the traced results must match.
	failed := t.rep.Failed
	for k, d := range t.rep.Digests {
		if passes[0].rep.Digests[k] != d {
			failed++
			res.addErrors(fmt.Sprintf("%s/%s: result digest differs with telemetry capture on", w.name, k))
		}
	}
	res.Attempted += t.rep.Attempted
	res.Failed += failed
	res.addErrors(t.rep.Errors...)
	prof, err := os.ReadFile(profPath)
	if err != nil {
		return err
	}
	samples, err := attributeProfile(prof)
	if err != nil {
		return err
	}
	res.ProfileSamples = samples.total()
	res.Layers = layerMetrics(w.name, samples.shares(), t, passes)
	return nil
}

// layerMetrics derives every per-layer metric: host shares and host time
// per unit of work from the traced pass, runtime costs, farm spans and
// experiment shares from the untraced passes.
func layerMetrics(workload string, shares map[string]float64, traced *child, passes []*child) map[string]float64 {
	m := map[string]float64{}
	for _, l := range layers {
		m[l+".host_share"] = shares[l]
	}
	c := traced.rep.Counters
	for k, v := range simLayerMetrics(c) {
		m[k] = v
	}
	nsPer := func(layer string, work float64) float64 {
		return ratio(shares[layer]*float64(traced.rep.CPUNS), work)
	}
	m["cpu.ns_per_instr"] = nsPer("cpu", c["core.instructions"])
	m["cache.ns_per_access"] = nsPer("cache", cacheAccesses(c))
	m["memsys.ns_per_access"] = nsPer("memsys", c["memsys.accesses"])
	m["memctrl.ns_per_request"] = nsPer("memctrl", m["memctrl.requests"])
	m["dram.ns_per_command"] = nsPer("dram", m["dram.commands"])
	m["sample.detail_frac"] = traced.rep.DetailFrac

	var walls, alloc, gcs, gcFrac []float64
	spanNS := map[string]int64{}
	expNS := map[string]int64{}
	var hits, misses uint64
	for _, p := range passes {
		walls = append(walls, float64(p.rep.RawWallNS))
		alloc = append(alloc, p.rep.Runtime.AllocMB)
		gcs = append(gcs, float64(p.rep.Runtime.GCCycles))
		gcFrac = append(gcFrac, p.rep.Runtime.GCCPUFrac)
		for k, v := range p.rep.FarmSpanNS {
			spanNS[k] += v
		}
		for k, v := range p.rep.ExpWallNS {
			expNS[k] += v
		}
		hits += p.rep.Cache.Hits
		misses += p.rep.Cache.Misses
	}
	m["runtime.alloc_mb"] = median(alloc)
	m["runtime.gc_cycles"] = median(gcs)
	m["runtime.gc_cpu_frac"] = median(gcFrac)
	var spanTotal, expTotal int64
	for _, s := range farmSpans {
		spanTotal += spanNS[s]
	}
	for _, s := range farmSpans {
		m["farm."+s+"_share"] = ratio(float64(spanNS[s]), float64(spanTotal))
	}
	m["resultcache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	for _, v := range expNS {
		expTotal += v
	}
	for _, e := range suiteExperiments {
		m["exp."+e+".wall_share"] = 0
		if workload == "suite" {
			m["exp."+e+".wall_share"] = ratio(float64(expNS[e]), float64(expTotal))
		}
	}
	// The traced pass is not normalised (it samples no reference), so it
	// compares with the passes' measured times.
	m["trace.overhead_frac"] = ratio(float64(traced.rep.RawWallNS), median(walls)) - 1
	return m
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printResult prints one workload's table: every end-to-end metric with
// its unit, median, max and sample count, then the nonzero per-layer
// metrics of a traced run.
func printResult(w io.Writer, res *workloadResult) {
	fmt.Fprintf(w, "%s: %d operations, %d failed, digests %s\n", res.Name, res.Attempted, res.Failed, res.Digests)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	fmt.Fprintf(w, "  %-20s %-10s %14s %14s %4s\n", "metric", "unit", "median", "max", "n")
	for _, m := range endToEnd {
		if st := res.Metrics[m.Name]; st != nil {
			fmt.Fprintf(w, "  %-20s %-10s %14.6g %14.6g %4d\n", m.Name, st.Unit, st.Median, st.Max, st.N)
		} else if m.appliesTo(res.Name) {
			fmt.Fprintf(w, "  %-20s %-10s %14s %14s %4d\n", m.Name, m.Unit, "unchecked", "", 0)
		}
	}
	if res.Layers == nil {
		return
	}
	fmt.Fprintf(w, "  per layer (traced pass, %d profile samples):\n", res.ProfileSamples)
	for _, m := range perLayer() {
		if v := res.Layers[m.Name]; v != 0 {
			fmt.Fprintf(w, "  %-32s %-12s %14.6g\n", m.Name, m.Unit, v)
		}
	}
}

// writeResultLine prints the one-line result that ends bench.sh's output:
// the end-to-end metrics BENCHMARK.json lists, or with tracing every
// per-layer metric, each with its unit.
func writeResultLine(w io.Writer, res *workloadResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range perLayer() {
			metrics[m.Name] = value{res.Layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if m.Listed {
				st := res.Metrics[m.Name]
				metrics[m.Name] = value{st.Median, st.Unit}
			}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
