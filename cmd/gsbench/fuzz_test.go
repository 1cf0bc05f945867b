package main

import (
	"io"
	"strings"
	"testing"
)

// fuzzDocOld and fuzzDocNew are hand-built run documents that reach
// every analysis: scalar and histogram metrics, per-bank and row-mix
// counters, the latency section with core stalls, and an epoch series
// whose stalls diverge.
const fuzzDocOld = `{"manifest":{"seed":42,"workers":1,"params":{"exp":"fig9"}},
"experiments":[{"experiment":"fig9","wall_ns":5,"telemetry":[{"label":"fig9/GS-DRAM/1-0-1","end_cycle":1000,
"metrics":{"memctrl.row_hit_reads":7,"latency.ch0.rk0.bank1.total.sum":40,"latency.ch0.total.sum":40,
"lat":{"count":3,"sum":30,"mean":10,"buckets":{"0":1,"8":2}}},
"series":{"interval":100,"columns":["core.0.mem_stall_cycles"],"epochs":[{"at":100,"values":[10]},{"at":200,"values":[20]}]},
"latency":{"requests_seen":3,"classes":{"p0":{"count":3,"mean":10,"p50":8,"p95":15,"p99":15}},"core_stalls":[{"bank_conflict":20}]}}]}]}`

const fuzzDocNew = `{"manifest":{"seed":42,"workers":1,"params":{"exp":"fig9"}},
"experiments":[{"experiment":"fig9","wall_ns":6,"telemetry":[{"label":"fig9/GS-DRAM/1-0-1","end_cycle":1200,
"metrics":{"memctrl.row_hit_reads":5,"latency.ch0.rk0.bank1.total.sum":90,"latency.ch0.total.sum":90,
"lat":{"count":4,"sum":60,"mean":15,"buckets":{"0":1,"16":3}}},
"series":{"interval":100,"columns":["core.0.mem_stall_cycles"],"epochs":[{"at":100,"values":[10]},{"at":200,"values":[120]}]},
"latency":{"requests_seen":4,"classes":{"p0":{"count":4,"mean":15,"p50":16,"p95":31,"p99":31}},"core_stalls":[{"bank_conflict":120}]}}]}]}`

// FuzzDiffDocuments feeds two decoded run documents through every
// analysis that reads them: explain and its report, bench-gate with
// -explain, and metrics-diff. No input may panic. The number of runs
// explain diagnoses is checked against a direct count of the old runs
// whose (experiment, label) the new document also holds, and each
// document is compared with itself, where every analysis has a known
// answer (checkSelfDiff).
func FuzzDiffDocuments(f *testing.F) {
	f.Add([]byte(fuzzDocOld), []byte(fuzzDocNew))
	f.Add([]byte(fuzzDocNew), []byte(fuzzDocOld))
	f.Add([]byte(fuzzDocOld), []byte(`{"experiments":[{"experiment":"fig9","telemetry":[{"label":"fig9/GS-DRAM/1-0-1","end_cycle":0,"latency":{"core_stalls":[]}}]}]}`))
	f.Add([]byte(`{"experiments":[{"telemetry":[{"label":"a","series":{"epochs":[]}},{"label":"b","series":{}}]}]}`), []byte(`{"experiments":[{"telemetry":[{"label":"a"},{"label":"b"}]}]}`))
	// A run that appears twice, and a scalar named like a histogram's
	// expansion.
	f.Add([]byte(`{"experiments":[{"telemetry":[{"label":"a","end_cycle":1000},{"label":"a","end_cycle":2000}]}]}`), []byte(`{}`))
	f.Add([]byte(`{"experiments":[{"telemetry":[{"metrics":{"lat.sum":71,"lat":{}}}]}]}`), []byte(`{}`))
	f.Fuzz(func(t *testing.T, oldDoc, newDoc []byte) {
		oldF, err := decodeDiffFile("old.json", oldDoc)
		if err != nil {
			return
		}
		newF, err := decodeDiffFile("new.json", newDoc)
		if err != nil {
			return
		}
		matched := 0
		for _, e := range oldF.Experiments {
			for _, ot := range e.Telemetry {
				if holdsRun(newF, e.Experiment, ot.Label) {
					matched++
				}
			}
		}
		v, err := explainDocs("old.json", "new.json", oldF, newF)
		switch {
		case err != nil && matched > 0:
			t.Fatalf("explain failed with %d runs in common: %v", matched, err)
		case err == nil && len(v.Runs) != matched:
			t.Fatalf("explain diagnosed %d runs, the documents have %d in common", len(v.Runs), matched)
		case err == nil:
			renderExplain(io.Discard, v, 5)
		}
		_ = gateFiles(io.Discard, gateArgs{old: "old.json", new: "new.json", explain: true}, oldF, newF)
		_ = metricsDiffFiles(io.Discard, "old.json", "new.json", oldF, newF, true)
		checkSelfDiff(t, oldF)
		checkSelfDiff(t, newF)
	})
}

// checkSelfDiff runs the analyses on a document against itself:
// metrics-diff must find no differing metric, bench-gate at -tol 0 must
// pass, and every run explain diagnoses must have a zero delta. A
// document without telemetry runs must make metrics-diff and bench-gate
// say so.
func checkSelfDiff(t *testing.T, f *diffFile) {
	t.Helper()
	runs := 0
	for _, e := range f.Experiments {
		runs += len(e.Telemetry)
	}
	var out strings.Builder
	err := metricsDiffFiles(&out, "doc.json", "doc.json", f, f, false)
	if runs == 0 && err == nil || runs > 0 && (err != nil || out.String() != "metrics-diff: no differing metrics\n") {
		t.Fatalf("metrics-diff of a document with %d runs against itself: error %v, output\n%s", runs, err, out.String())
	}
	err = gateFiles(io.Discard, gateArgs{old: "doc.json", new: "doc.json"}, f, f)
	if runs > 0 && err != nil || runs == 0 && (err == nil || !strings.Contains(err.Error(), "no telemetry runs")) {
		t.Fatalf("bench-gate -tol 0 of a document with %d runs against itself: %v", runs, err)
	}
	v, err := explainDocs("doc.json", "doc.json", f, f)
	if err != nil {
		return
	}
	for _, r := range v.Runs {
		if r.DeltaCycles != 0 || r.DeltaCoreCycles != 0 {
			t.Fatalf("explain of a document against itself: %s · %s moved %d cycles", r.Experiment, r.Label, r.DeltaCycles)
		}
		for _, s := range r.Stages {
			if s.Delta != 0 {
				t.Fatalf("explain of a document against itself: %s · %s stage %s moved %d cycles", r.Experiment, r.Label, s.Stage, s.Delta)
			}
		}
	}
}

// holdsRun reports whether f has a telemetry run labelled label under
// experiment exp.
func holdsRun(f *diffFile, exp, label string) bool {
	for _, e := range f.Experiments {
		if e.Experiment != exp {
			continue
		}
		for _, t := range e.Telemetry {
			if t.Label == label {
				return true
			}
		}
	}
	return false
}
