package bench

import (
	"reflect"
	"testing"

	"gsdram/internal/latency"
	"gsdram/internal/telemetry"
)

// TestLatencyCaptureDoesNotPerturbResults: the latency attribution layer
// rides on the telemetry registry, so enabling it must leave the
// simulation results bit-identical to an uninstrumented run — and the
// capture itself must hold: every telemetered run carries a recorder
// whose span histograms conserve (per class, the span sums equal the
// total sum) and whose stall counters sum exactly to each core's
// mem_stall_cycles.
func TestLatencyCaptureDoesNotPerturbResults(t *testing.T) {
	opts := telemetryTestOpts(1)
	base, err := RunFig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	capture := NewCapture(0)
	opts.Capture = capture
	got, err := RunFig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	runs := capture.Drain()
	if !reflect.DeepEqual(base.Runs, got.Runs) {
		t.Fatal("latency-instrumented Fig9 results differ from uninstrumented results")
	}
	if len(runs) == 0 {
		t.Fatal("no telemetry runs captured")
	}
	for _, r := range runs {
		rec := r.Latency
		if rec == nil {
			t.Fatalf("%s: telemetered run has no latency recorder", r.Label)
		}
		if rec.Seen() == 0 {
			t.Errorf("%s: latency recorder observed no requests", r.Label)
		}
		if len(r.Log.Requests()) == 0 {
			t.Errorf("%s: no request traces captured", r.Label)
		}
		// Span-histogram conservation per pattern class.
		for _, gather := range []bool{false, true} {
			total, spans := rec.Class(gather)
			var spanSum, spanCount uint64
			for _, h := range spans {
				spanSum += h.Sum()
				spanCount += h.Count()
			}
			if spanSum != total.Sum() {
				t.Errorf("%s: class gather=%v span sum %d != total sum %d",
					r.Label, gather, spanSum, total.Sum())
			}
			if spanCount != total.Count()*uint64(latency.NumSpans) {
				t.Errorf("%s: class gather=%v span count %d != %d×total count %d",
					r.Label, gather, spanCount, latency.NumSpans, total.Count())
			}
		}
		// Core-stall conservation against the core's own counter.
		export := r.Registry.Export()
		for core, cs := range r.Cores {
			var attributed uint64
			for st := latency.Stage(0); st < latency.NumStages; st++ {
				attributed += rec.StallCycles(cs.Core, st)
			}
			m, ok := export["core.0.mem_stall_cycles"]
			if core != 0 {
				t.Fatalf("%s: unexpected multi-core fig9 run", r.Label)
			}
			if !ok {
				t.Fatalf("%s: core.0.mem_stall_cycles not exported", r.Label)
			}
			if counted := m.(uint64); attributed != counted {
				t.Errorf("%s: attributed %d stall cycles, core counted %d",
					r.Label, attributed, counted)
			}
		}
	}
}

// TestLatencyCaptureIdenticalAcrossWorkers: the attribution capture must
// not depend on the worker count — traces, stall counters, and span
// histograms are all part of the registry export compared here.
func TestLatencyCaptureIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker replay in -short mode")
	}
	capture := func(workers int) []*telemetry.Run {
		c := NewCapture(0)
		opts := telemetryTestOpts(workers)
		opts.Capture = c
		if _, err := RunFig9(opts); err != nil {
			t.Fatal(err)
		}
		return c.Drain()
	}
	serial, parallel := capture(1), capture(4)
	if len(serial) != len(parallel) {
		t.Fatalf("run counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Label != b.Label {
			t.Fatalf("label order differs: %q vs %q", a.Label, b.Label)
		}
		if !reflect.DeepEqual(a.Log.Requests(), b.Log.Requests()) {
			t.Errorf("%s: request traces differ across worker counts", a.Label)
		}
		if a.Latency.Seen() != b.Latency.Seen() {
			t.Errorf("%s: trace seen counts differ: %d vs %d",
				a.Label, a.Latency.Seen(), b.Latency.Seen())
		}
		if !reflect.DeepEqual(a.Registry.Export(), b.Registry.Export()) {
			t.Errorf("%s: exported metrics (incl. latency histograms) differ across worker counts", a.Label)
		}
	}
}
