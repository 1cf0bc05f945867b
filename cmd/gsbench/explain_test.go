package main

import (
	"encoding/json"
	"strings"
	"testing"

	"gsdram/internal/sim"
	"gsdram/internal/spec"
	"gsdram/internal/telemetry"
)

// explainDoc builds an in-memory diff document with one run carrying a
// latency summary (the stage attribution explain decomposes).
func explainDoc(end uint64, stalls []map[string]uint64) *diffFile {
	f := &diffFile{}
	f.Experiments = []diffExperiment{{
		Experiment: "fig9",
		Telemetry: []diffTelemetry{{
			Label:    "fig9/GS-DRAM/pure-q",
			EndCycle: end,
			Latency:  &spec.LatencySummary{CoreStalls: stalls},
		}},
	}}
	return f
}

// TestExplainExactSum pins the central invariant: the per-stage deltas
// (including the "other" residual) sum EXACTLY to cores × Δend_cycle —
// the decomposition conserves cycles, it does not approximate them.
func TestExplainExactSum(t *testing.T) {
	old := explainDoc(100_000, []map[string]uint64{{"data_transfer": 40_000, "l2_hit": 10_000}})
	now := explainDoc(120_000, []map[string]uint64{{"data_transfer": 41_000, "l2_hit": 27_000}})
	v, err := explainDocs("old", "new", old, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Runs) != 1 {
		t.Fatalf("got %d runs", len(v.Runs))
	}
	r := v.Runs[0]
	if r.DeltaCycles != 20_000 || r.Cores != 1 || r.DeltaCoreCycles != 20_000 {
		t.Fatalf("deltas: %+v", r)
	}
	if !r.Exact {
		t.Fatalf("decomposition not exact: %+v", r.Stages)
	}
	var sum int64
	var shares float64
	for _, s := range r.Stages {
		sum += s.Delta
		shares += s.Share
	}
	if sum != r.DeltaCoreCycles {
		t.Fatalf("stage deltas sum to %d, want exactly %d", sum, r.DeltaCoreCycles)
	}
	if shares < 0.999 || shares > 1.001 {
		t.Fatalf("shares sum to %f, want 1", shares)
	}
	// l2_hit moved +17000, dram +1000, other +2000: l2_hit must rank first.
	if r.Stages[0].Stage != "l2_hit" || v.TopStage != "l2_hit" {
		t.Fatalf("top stage %q / %q, want l2_hit", r.Stages[0].Stage, v.TopStage)
	}
}

// TestExplainExactSumMultiCore checks the invariant holds per core count:
// stage deltas sum to cores × Δend_cycle.
func TestExplainExactSumMultiCore(t *testing.T) {
	old := explainDoc(50_000, []map[string]uint64{
		{"data_transfer": 20_000}, {"data_transfer": 15_000, "mshr_wait": 5_000},
	})
	now := explainDoc(57_000, []map[string]uint64{
		{"data_transfer": 26_000}, {"data_transfer": 16_000, "mshr_wait": 9_000},
	})
	v, err := explainDocs("old", "new", old, now)
	if err != nil {
		t.Fatal(err)
	}
	r := v.Runs[0]
	if r.Cores != 2 || r.DeltaCoreCycles != 2*7_000 {
		t.Fatalf("deltas: %+v", r)
	}
	var sum int64
	for _, s := range r.Stages {
		sum += s.Delta
	}
	if !r.Exact || sum != r.DeltaCoreCycles {
		t.Fatalf("stage deltas sum to %d (exact=%v), want exactly %d", sum, r.Exact, r.DeltaCoreCycles)
	}
}

// TestExplainOnset checks regression-onset localization: the first epoch
// where the new run's cumulative stalls pull ahead by ≥5% of the final
// divergence.
func TestExplainOnset(t *testing.T) {
	series := func(vals []uint64) *telemetry.Series {
		s := &telemetry.Series{Interval: 1000, Columns: []string{"core.0.mem_stall_cycles"}}
		for i, v := range vals {
			s.Epochs = append(s.Epochs, telemetry.Epoch{At: sim.Cycle(1000 * (i + 1)), Values: []uint64{v}})
		}
		return s
	}
	old := explainDoc(4_000, []map[string]uint64{{"data_transfer": 300}})
	now := explainDoc(4_500, []map[string]uint64{{"data_transfer": 900}})
	old.Experiments[0].Telemetry[0].Series = series([]uint64{0, 100, 200, 300})
	now.Experiments[0].Telemetry[0].Series = series([]uint64{0, 100, 500, 900})
	v, err := explainDocs("old", "new", old, now)
	if err != nil {
		t.Fatal(err)
	}
	on := v.Runs[0].Onset
	if on == nil {
		t.Fatal("no onset found")
	}
	if on.Epoch != 2 || on.Cycle != 3000 || on.StallDelta != 300 {
		t.Fatalf("onset %+v, want epoch 2 at cycle 3000 (+300 stalls)", on)
	}
}

// TestExplainCmdJSONVerdict runs the subcommand end to end on JSON files
// and decodes the machine-readable verdict.
func TestExplainCmdJSONVerdict(t *testing.T) {
	doc := func(end, dram uint64) string {
		blob, err := json.Marshal(map[string]any{
			"manifest": map[string]any{"seed": 42},
			"experiments": []any{map[string]any{
				"experiment": "fig9",
				"telemetry": []any{map[string]any{
					"label":     "fig9/GS-DRAM/pure-q",
					"end_cycle": end,
					"metrics":   map[string]any{"memctrl.row_miss_reads": dram / 100},
					"latency":   map[string]any{"core_stalls": []any{map[string]uint64{"data_transfer": dram}}},
				}},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	oldPath := writeGateFile(t, "old.json", doc(100_000, 40_000))
	newPath := writeGateFile(t, "new.json", doc(130_000, 68_000))

	var out strings.Builder
	if err := explainCmd([]string{"-json", "-", oldPath, newPath}, &out); err != nil {
		t.Fatalf("explain failed: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "top cause: data_transfer") {
		t.Fatalf("missing top-cause line:\n%s", text)
	}
	// The verdict JSON is the trailing pretty-printed object on stdout.
	start := strings.Index(text, "{\n")
	if start < 0 {
		t.Fatalf("no JSON verdict in output:\n%s", text)
	}
	var verdict explainVerdict
	if err := json.Unmarshal([]byte(text[start:]), &verdict); err != nil {
		t.Fatalf("bad verdict JSON: %v", err)
	}
	if verdict.TopStage != "data_transfer" || len(verdict.Runs) != 1 || !verdict.Runs[0].Exact {
		t.Fatalf("verdict: %+v", verdict)
	}
	if len(verdict.Runs[0].RowMix) == 0 || verdict.Runs[0].RowMix[0].Key != "row_miss_reads" {
		t.Fatalf("row-mix evidence missing: %+v", verdict.Runs[0].RowMix)
	}
}

// TestExplainNoCommonRuns: disjoint documents are an error, not an empty
// diagnosis.
func TestExplainNoCommonRuns(t *testing.T) {
	a := explainDoc(1000, nil)
	b := explainDoc(1000, nil)
	b.Experiments[0].Experiment = "fig10"
	if _, err := explainDocs("a", "b", a, b); err == nil {
		t.Fatal("want error for disjoint documents")
	}
}

// TestGateExplainFlag: a failing bench-gate with -explain prints the
// diagnosis before the gate error.
func TestGateExplainFlag(t *testing.T) {
	ga, err := parseGateArgs([]string{"-explain", "a", "b"})
	if err != nil || !ga.explain {
		t.Fatalf("parse -explain: %+v, %v", ga, err)
	}

	mk := func(end, dram uint64) string {
		f := explainDoc(end, []map[string]uint64{{"data_transfer": dram}})
		blob, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	oldPath := writeGateFile(t, "old.json", mk(100_000, 40_000))
	newPath := writeGateFile(t, "new.json", mk(130_000, 68_000))
	var out strings.Builder
	if err := benchGate([]string{"-explain", oldPath, newPath}, &out); err == nil {
		t.Fatalf("regressed run passed the gate:\n%s", out.String())
	}
	text := out.String()
	if !strings.Contains(text, "FAIL fig9") || !strings.Contains(text, "top cause: data_transfer") {
		t.Fatalf("gate output missing FAIL or explain diagnosis:\n%s", text)
	}
}
