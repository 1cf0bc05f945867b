package bench

import (
	"reflect"
	"testing"

	"gsdram/internal/flight"
	"gsdram/internal/telemetry"
)

// telemetryTestOpts is a small, fast Fig9 configuration.
func telemetryTestOpts(workers int) Options {
	opts := QuickOptions()
	opts.Tuples = 4096
	opts.Txns = 200
	opts.Workers = workers
	return opts
}

// TestTelemetryDoesNotPerturbResults: enabling telemetry must leave the
// simulation results deeply equal to a telemetry-free run — the capture
// layer observes, never mutates.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
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
		t.Fatal("telemetry-enabled Fig9 results differ from telemetry-free results")
	}

	// And the capture itself must be substantive: one run per (layout,
	// mix) with a well-populated registry and a non-empty time-series.
	if want := 3 * len(base.Mixes); len(runs) != want {
		t.Fatalf("captured %d runs, want %d", len(runs), want)
	}
	for _, r := range runs {
		if r.Registry.Len() < 20 {
			t.Errorf("%s: %d metrics, want >= 20", r.Label, r.Registry.Len())
		}
		if len(r.Series.Epochs) == 0 {
			t.Errorf("%s: empty epoch series", r.Label)
		}
		if r.Log.Seen(flight.CompDDR) == 0 || len(r.Log.Commands()) == 0 {
			t.Errorf("%s: no DRAM commands captured", r.Label)
		}
		if len(r.Cores) != 1 || r.Cores[0].Finish == 0 {
			t.Errorf("%s: bad core spans %+v", r.Label, r.Cores)
		}
	}
}

// TestTelemetrySeriesIdenticalAcrossWorkers: the epoch time-series (and
// everything else captured) must not depend on the worker count.
func TestTelemetrySeriesIdenticalAcrossWorkers(t *testing.T) {
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
		if !reflect.DeepEqual(a.Series, b.Series) {
			t.Errorf("%s: epoch series differs across worker counts", a.Label)
		}
		if !reflect.DeepEqual(a.Log.Commands(), b.Log.Commands()) || a.Log.Seen(flight.CompDDR) != b.Log.Seen(flight.CompDDR) {
			t.Errorf("%s: DRAM command capture differs across worker counts", a.Label)
		}
		if !reflect.DeepEqual(a.Log.Phases(), b.Log.Phases()) || a.Log.PhasesSeen() != b.Log.PhasesSeen() {
			t.Errorf("%s: stall phases differ across worker counts", a.Label)
		}
		if !reflect.DeepEqual(a.Registry.Export(), b.Registry.Export()) {
			t.Errorf("%s: final metrics differ across worker counts", a.Label)
		}
	}
}

// TestTelemetryDisabledCapturesNothing: the default state (nil
// Options.Capture) stays silent, and an unused capture stays empty.
func TestTelemetryDisabledCapturesNothing(t *testing.T) {
	unused := NewCapture(0)
	if _, err := RunFig9(telemetryTestOpts(1)); err != nil {
		t.Fatal(err)
	}
	if runs := unused.Drain(); len(runs) != 0 {
		t.Fatalf("captured %d runs into a capture no batch was given", len(runs))
	}
}

// TestCapturesAreIndependent: two concurrent batches with their own
// captures each drain exactly their own runs — the per-rig capture path
// has no session-global state to cross-talk through.
func TestCapturesAreIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two fig9 batches")
	}
	type result struct {
		runs []*telemetry.Run
		err  error
	}
	run := func(seed uint64, ch chan<- result) {
		c := NewCapture(0)
		opts := telemetryTestOpts(2)
		opts.Seed = seed
		opts.Capture = c
		_, err := RunFig9(opts)
		ch <- result{c.Drain(), err}
	}
	a, b := make(chan result, 1), make(chan result, 1)
	go run(1, a)
	go run(2, b)
	ra, rb := <-a, <-b
	if ra.err != nil || rb.err != nil {
		t.Fatalf("concurrent batches failed: %v / %v", ra.err, rb.err)
	}
	if len(ra.runs) == 0 || len(ra.runs) != len(rb.runs) {
		t.Fatalf("run counts: %d vs %d (want equal, non-zero)", len(ra.runs), len(rb.runs))
	}
	// Labels are per-batch identical (same experiment); the captured
	// registries must belong to distinct rigs.
	for i := range ra.runs {
		if ra.runs[i].Label != rb.runs[i].Label {
			t.Fatalf("label order differs: %q vs %q", ra.runs[i].Label, rb.runs[i].Label)
		}
		if ra.runs[i].Registry == rb.runs[i].Registry {
			t.Fatalf("%s: both captures hold the same registry", ra.runs[i].Label)
		}
	}
}
