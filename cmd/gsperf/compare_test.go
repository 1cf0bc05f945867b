package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4)
// as Python computes it, the spread the bounds are judged against.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
		{[]float64{1, 2, 4, 8}, 1.25, 7},
		{[]float64{2, 2, 2, 2, 2}, 2, 2},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1}); !math.IsInf(s, 1) {
		t.Errorf("spread of one sample = %v, want +Inf", s)
	}
}

func TestVerdict(t *testing.T) {
	wall, _ := lookupEndMetric("wall_s")
	warm, _ := lookupEndMetric("warm_points_per_s")
	fail, _ := lookupEndMetric("fail_frac")
	setup, _ := lookupEndMetric("setup_s")
	for _, c := range []struct {
		name     string
		m        endMetric
		old, new []float64
		want     string
	}{
		{"within bound", wall, []float64{10, 10.1, 10.2}, []float64{10.5, 10.6, 10.7}, verdictSame},
		{"slower", wall, []float64{10, 10.1, 10.2}, []float64{13, 13.1, 13.2}, verdictWorse},
		{"faster", wall, []float64{10, 10.1, 10.2}, []float64{7, 7.1, 7.2}, verdictBetter},
		{"noisy", wall, []float64{8, 10, 12}, []float64{9, 11, 13}, verdictUnresolved},
		{"noisy but every run faster", wall, []float64{10, 12, 14}, []float64{6, 7, 9}, verdictBetter},
		{"noisy, every run faster, within bound", wall, []float64{10, 10.01, 13}, []float64{9.5, 9.6, 9.9}, verdictSame},
		{"higher is better, dropped", warm, []float64{4000, 4010, 4020}, []float64{2900, 2910, 2920}, verdictWorse},
		{"higher is better, rose", warm, []float64{4000, 4010, 4020}, []float64{5500, 5510, 5520}, verdictBetter},
		{"a failure in one run", fail, []float64{0, 0, 0}, []float64{0, 0.01, 0}, verdictWorse},
		{"failures in most runs", fail, []float64{0, 0, 0}, []float64{0.01, 0.01, 0}, verdictWorse},
		{"fewer failures", fail, []float64{0.02, 0.02, 0.02}, []float64{0, 0, 0}, verdictBetter},
		{"one run each", wall, []float64{10}, []float64{10.1}, verdictUnresolved},
		{"short setup, 50% slower but under 0.02 s", setup, []float64{0.016, 0.017, 0.018}, []float64{0.024, 0.025, 0.026}, verdictSame},
		{"short setup, jitter under 0.02 s", setup, []float64{0.012, 0.017, 0.022}, []float64{0.016, 0.017, 0.018}, verdictSame},
		{"short setup, 0.03 s slower", setup, []float64{0.016, 0.017, 0.018}, []float64{0.046, 0.047, 0.048}, verdictWorse},
		{"long setup, 30% slower", setup, []float64{0.40, 0.41, 0.42}, []float64{0.52, 0.53, 0.54}, verdictWorse},
	} {
		if got := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// syntheticDoc builds a results document with one workload.
func syntheticDoc(wall, fail []float64) *document {
	res := &workloadResult{Name: "suite", Metrics: map[string]*metricStat{}}
	for _, v := range wall {
		res.add("wall_s", v)
	}
	for _, v := range fail {
		res.add("fail_frac", v)
	}
	return &document{Tool: "gsperf", Workloads: []*workloadResult{res}}
}

func writeDoc(t *testing.T, d *document) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "doc.json")
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareCmd(t *testing.T) {
	base := writeDoc(t, syntheticDoc([]float64{10, 10.1, 10.2}, []float64{0, 0, 0}))
	var out strings.Builder
	same := writeDoc(t, syntheticDoc([]float64{10.2, 10.3, 10.1}, []float64{0, 0, 0}))
	if err := compareCmd([]string{base, same}, &out); err != nil {
		t.Errorf("equal documents: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), verdictSame) {
		t.Errorf("report lacks the wall_s verdict:\n%s", out.String())
	}

	out.Reset()
	slower := writeDoc(t, syntheticDoc([]float64{13, 13.1, 13.2}, []float64{0, 0, 0}))
	if err := compareCmd([]string{base, slower}, &out); err == nil {
		t.Errorf("slower document passed:\n%s", out.String())
	}

	out.Reset()
	failing := writeDoc(t, syntheticDoc([]float64{10, 10.1, 10.2}, []float64{0.5, 0.5, 0.5}))
	if err := compareCmd([]string{base, failing}, &out); err == nil {
		t.Errorf("higher fail_frac passed:\n%s", out.String())
	}

	if err := compareCmd([]string{base}, &out); err == nil {
		t.Error("one document accepted")
	}
}
