package bench

import (
	"bytes"
	"reflect"
	"testing"

	"gsdram/internal/flight"
)

// TestFlightDoesNotPerturbResults: arming the flight recorder must leave
// the simulation results deeply equal to an unarmed run — recording
// observes, never mutates — while still filling the rings.
func TestFlightDoesNotPerturbResults(t *testing.T) {
	opts := telemetryTestOpts(1)
	base, err := RunFig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	capture := NewCapture(0)
	capture.SetFlightDepth(64)
	opts.Capture = capture
	got, err := RunFig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Runs, got.Runs) {
		t.Fatal("flight-armed Fig9 results differ from unarmed results")
	}
	recs := capture.FlightRecorders()
	if want := 3 * len(base.Mixes); len(recs) != want {
		t.Fatalf("got %d flight recorders, want %d", len(recs), want)
	}
	for _, lr := range recs {
		if lr.Rec.Depth() != 64 {
			t.Errorf("%s: depth %d, want 64", lr.Label, lr.Rec.Depth())
		}
		// Every rig drives DRAM, caches, MSHRs, and cores; those rings
		// must have seen traffic.
		for _, c := range []flight.Component{flight.CompDDR, flight.CompCache, flight.CompMSHR, flight.CompCore} {
			if lr.Rec.Seen(c) == 0 {
				t.Errorf("%s: component %s recorded nothing", lr.Label, c)
			}
		}
	}
	// The drained telemetry runs carry the same logs.
	for i, r := range capture.Drain() {
		if r.Log != recs[i].Rec {
			t.Errorf("%s: telemetry run does not carry its flight-armed log", r.Label)
		}
	}
}

// TestFlightIdenticalAcrossWorkers: the recorded event history — down to
// the serialized NDJSON bytes — must not depend on the worker count.
// Events are recorded in simulated-cycle order by construction, so any
// worker count replays the same rings.
func TestFlightIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker replay in -short mode")
	}
	dump := func(workers int) []byte {
		c := NewCapture(0)
		c.SetFlightDepth(64)
		opts := telemetryTestOpts(workers)
		opts.Capture = c
		if _, err := RunFig9(opts); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := flight.WriteNDJSON(&buf, c.FlightRecorders(), nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := dump(1), dump(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatal("flight NDJSON dump differs across worker counts")
	}
	if len(serial) == 0 {
		t.Fatal("empty flight dump")
	}
}

// TestFlightDisabledByDefault: without SetFlightDepth the capture hands
// out no recorders and the telemetry runs' logs keep no tails — the
// zero-overhead default.
func TestFlightDisabledByDefault(t *testing.T) {
	c := NewCapture(0)
	opts := telemetryTestOpts(1)
	opts.Capture = c
	if _, err := RunFig9(opts); err != nil {
		t.Fatal(err)
	}
	if recs := c.FlightRecorders(); len(recs) != 0 {
		t.Fatalf("got %d flight recorders without SetFlightDepth", len(recs))
	}
	for _, r := range c.Drain() {
		if r.Log.Depth() != 0 {
			t.Errorf("%s: log keeps a tail without SetFlightDepth", r.Label)
		}
	}
}
