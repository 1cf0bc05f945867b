package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for gsperf's children.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		if err := childMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "gsperf child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWorkloadsSmoke runs every workload once at the reduced scale, plus
// its traced pass, and checks that each reports every metric it lists,
// with its unit, and that no operation fails.
func TestWorkloadsSmoke(t *testing.T) {
	dir := t.TempDir()
	o := options{seed: 42, repeats: 1, workers: 2, workloads: workloads, traceDir: dir, quick: true}
	var out strings.Builder
	doc, err := runBenchmark(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workload results, want %d", len(doc.Workloads), len(workloads))
	}
	for _, res := range doc.Workloads {
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", res.Name, res.Failed, res.Attempted, res.Errors)
		}
		for _, m := range endToEnd {
			st := res.Metrics[m.Name]
			switch {
			case !m.appliesTo(res.Name) || m.Name == "sample_err_pct":
				// sample_err_pct needs a recorded truth, which the reduced
				// scale has none of.
				if st != nil {
					t.Errorf("%s reports %s, which does not apply", res.Name, m.Name)
				}
			case st == nil || st.N < 1 || st.Unit != m.Unit:
				t.Errorf("%s: %s = %+v, want samples in %s", res.Name, m.Name, st, m.Unit)
			case m.Listed && st.Median <= 0:
				t.Errorf("%s: %s = %v, want a positive value", res.Name, m.Name, st.Median)
			}
		}
		if st := res.Metrics["fail_frac"]; st == nil || st.Max != 0 {
			t.Errorf("%s: fail_frac %+v, want 0", res.Name, st)
		}
		for _, m := range perLayer() {
			if _, ok := res.Layers[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", res.Name, m.Name)
			}
		}
		sum := 0.0
		for _, l := range layers {
			sum += res.Layers[l+".host_share"]
		}
		if res.ProfileSamples > 0 && math.Abs(sum-1) > 0.01 {
			t.Errorf("%s: host shares sum to %v, want 1", res.Name, sum)
		}
		if _, err := os.Stat(filepath.Join(dir, res.Name+".pprof")); err != nil {
			t.Error(err)
		}
		if !strings.Contains(out.String(), res.Name+":") {
			t.Errorf("report lacks %s:\n%s", res.Name, out.String())
		}
	}
	// Telemetered detailed runs feed the simulated counters, and the
	// stall shares conserve.
	det := doc.Workloads[1].Layers
	if det["cpu.instructions"] <= 0 || det["dram.commands"] <= 0 {
		t.Errorf("imdb-detailed counters missing: %v", det)
	}
	stalls := 0.0
	for _, s := range stallStages {
		stalls += det["stall."+s+"_share"]
	}
	if math.Abs(stalls-1) > 1e-9 {
		t.Errorf("stall shares sum to %v, want 1", stalls)
	}

	var layerDoc map[string]struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	readJSON(t, filepath.Join(dir, "layers.json"), &layerDoc)
	if len(layerDoc) != len(workloads) {
		t.Errorf("layers.json holds %d workloads, want %d", len(layerDoc), len(workloads))
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	readJSON(t, filepath.Join(dir, "spans.json"), &trace)
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"spec.Run fig9", "farm cold sweep", "farm warm resubmits", "stress indexed", "setup suite"} {
		if !names[want] {
			t.Errorf("spans.json has no %q span", want)
		}
	}

	// The one-line result that ends bench.sh's output, untraced and traced.
	for _, traced := range []bool{false, true} {
		var line strings.Builder
		if err := writeResultLine(&line, doc.Workloads[0], traced); err != nil {
			t.Fatal(err)
		}
		var r struct {
			Correct   *bool `json:"correct"`
			Attempted int   `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line.String()), &r); err != nil {
			t.Fatalf("result line %q: %v", line.String(), err)
		}
		if r.Correct == nil || !*r.Correct || r.Attempted < 1 || r.Failed == nil {
			t.Errorf("result line %s", line.String())
		}
		want := len(perLayer())
		if !traced {
			want = len(listed())
		}
		if len(r.Metrics) != want {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(r.Metrics), want)
		}
		for name, v := range r.Metrics {
			if v.Value == nil || v.Unit == "" {
				t.Errorf("traced=%v: metric %s = %+v", traced, name, v)
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func listed() []endMetric {
	var out []endMetric
	for _, m := range endToEnd {
		if m.Listed {
			out = append(out, m)
		}
	}
	return out
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFile checks BENCHMARK.json against the code: the same
// workloads, metrics, units and bounds, within the file's limits.
func TestBenchmarkFile(t *testing.T) {
	var f benchmarkFile
	readJSON(t, filepath.Join("..", "..", "BENCHMARK.json"), &f)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	// The file lists the workloads bench.sh is run on, a subset of the
	// code's.
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 {
		t.Fatalf("%d workloads in the file, want 2 to 8", len(f.Workloads))
	}
	for _, w := range f.Workloads {
		checkName(w.Name)
		c, ok := lookupWorkload(w.Name)
		if !ok || w.Why != c.why || len(w.Why) > 200 {
			t.Errorf("workload %q: file %q, code %q", w.Name, w.Why, c.why)
		}
	}
	code := listed()
	if len(f.EndToEnd) != len(code) || len(f.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in the file, %d listed in the code (at most 16)", len(f.EndToEnd), len(code))
	}
	for i, m := range f.EndToEnd {
		checkName(m.Name)
		c := code[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: file %+v, code %+v", i, m, c)
		}
	}
	if s, ok := lookupEndMetric("setup_s"); !ok || !s.Listed {
		t.Error("setup_s is not listed")
	} else {
		for _, m := range code {
			if m.Bound > s.Bound {
				t.Errorf("%s has a wider bound than setup_s", m.Name)
			}
		}
	}
	pl := perLayer()
	if len(f.PerLayer) != len(pl) || len(pl) > 128 {
		t.Fatalf("%d per-layer metrics in the file, %d in the code (at most 128)", len(f.PerLayer), len(pl))
	}
	for i, m := range f.PerLayer {
		checkName(m.Name)
		if m.Name != pl[i].Name || m.Unit != pl[i].Unit || m.Better != pl[i].Better {
			t.Errorf("per-layer %d: file %+v, code %+v", i, m, pl[i])
		}
	}
	if len(f.Paths) != 1 || f.Paths[0] != "cmd/gsperf" {
		t.Errorf("paths %v, want [cmd/gsperf]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d", f.RunSeconds)
	}
}

// TestDigestsIgnoreWorkersAndCapture pins the result digest: the same
// experiments digest identically at one and two workers and with
// telemetry capture off and on.
func TestDigestsIgnoreWorkersAndCapture(t *testing.T) {
	digests := func(workers int, capture bool) map[string]string {
		p := newPass(config{seed: 7, workers: workers, quick: true, capture: capture}, nil)
		if err := specPass(p, indexedSpec, "fig9", "hashjoin", "ptrchase"); err != nil {
			t.Fatal(err)
		}
		r := p.condense()
		if r.Failed != 0 || len(r.Digests) != 3 {
			t.Fatalf("workers %d capture %v: %v %v", workers, capture, r.Errors, r.Digests)
		}
		if capture != (r.Counters["core.instructions"] > 0) {
			t.Errorf("workers %d capture %v: counters %v", workers, capture, r.Counters)
		}
		return r.Digests
	}
	base := digests(1, false)
	for _, c := range []struct {
		workers int
		capture bool
	}{{2, false}, {1, true}, {2, true}} {
		got := digests(c.workers, c.capture)
		for k, d := range base {
			if got[k] != d {
				t.Errorf("%s: digest at workers %d capture %v differs", k, c.workers, c.capture)
			}
		}
	}
}

// TestExpectedFile checks that the committed digests cover every workload
// whose operations produce results at both recorded seeds, with the
// detailed truth of the sampled runs.
func TestExpectedFile(t *testing.T) {
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range expectedSeeds {
		o := options{seed: seed}
		for _, w := range workloads {
			if w.name != "stress" && len(e.digests(o, w.name)) == 0 {
				t.Errorf("seed %d: no digests for %s", seed, w.name)
			}
		}
		if len(e.truth(o)) == 0 {
			t.Errorf("seed %d: no detailed truth", seed)
		}
	}
	if e.digests(options{seed: 42, quick: true}, "suite") != nil {
		t.Error("the reduced scale must not be checked against full-scale digests")
	}
}
