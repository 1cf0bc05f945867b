package rig

import (
	"slices"
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/cpu"
	"gsdram/internal/flight"
	"gsdram/internal/memsys"
	"gsdram/internal/telemetry"
)

// loads is a short single-core program: n loads one line apart, each
// followed by a compute block.
func loads(n int) cpu.Stream {
	var ops []cpu.Op
	for i := 0; i < n; i++ {
		ops = append(ops, cpu.Load(addrmap.Addr(i*64), 0x8), cpu.Compute(4))
	}
	return cpu.SliceStream(ops)
}

// TestRunTelemetry: a telemetered rig hands exactly one run to Done,
// labelled, ending when the queue ran dry (at or after the core's
// finish), carrying the rig's event log, per-core counters, the live
// energy gauges and an epoch series that covers the run.
func TestRunTelemetry(t *testing.T) {
	log := flight.New(100, 100, 100, 0)
	var got []*telemetry.Run
	r, err := New(memsys.DefaultConfig(1), Options{
		Log:       log,
		Telemetry: &Telemetry{Label: "t/run", Epoch: 1000, Done: func(run *telemetry.Run) { got = append(got, run) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	core := cpu.New(0, r.Queue(), r.Mem(), loads(64), nil)
	if err := r.Run(core); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("Done called %d times, want 1", len(got))
	}
	run, st := got[0], core.Stats()
	if run.Label != "t/run" || run.Log != log || run.End != r.Queue().Now() || run.End < st.FinishCycle {
		t.Fatalf("run = {Label %q, Log %p, End %d}; want {t/run, %p, queue end %d >= finish %d}",
			run.Label, run.Log, run.End, log, r.Queue().Now(), st.FinishCycle)
	}
	if want := []telemetry.CoreSpan{{Core: 0, Start: 0, Finish: st.FinishCycle}}; !slices.Equal(run.Cores, want) {
		t.Fatalf("core spans = %+v, want %+v", run.Cores, want)
	}
	names := run.Registry.Names()
	for _, n := range []string{"core.0.instructions", "energy.total_uj"} {
		if !slices.Contains(names, n) {
			t.Errorf("registry lacks %s", n)
		}
	}
	if run.Series == nil || len(run.Series.Epochs) < 2 || run.Series.Epochs[len(run.Series.Epochs)-1].At != run.End {
		t.Fatalf("epoch series does not cover the run: %+v", run.Series)
	}
	if run.Latency == nil || len(log.Commands()) == 0 {
		t.Fatalf("latency recorder %p, %d logged commands; want both", run.Latency, len(log.Commands()))
	}
}

// TestRunMatchesUntelemetered: telemetry and NoInline observe without
// changing the run — the same program finishes at the same cycle with
// the same DRAM traffic on every rig.
func TestRunMatchesUntelemetered(t *testing.T) {
	type outcome struct {
		finish uint64
		mem    memsys.Stats
	}
	runOn := func(opts Options) outcome {
		r, err := New(memsys.DefaultConfig(1), opts)
		if err != nil {
			t.Fatal(err)
		}
		core := cpu.New(0, r.Queue(), r.Mem(), loads(256), nil)
		if err := r.Run(core); err != nil {
			t.Fatal(err)
		}
		return outcome{uint64(core.Stats().FinishCycle), r.Mem().Stats()}
	}
	plain := runOn(Options{})
	for name, opts := range map[string]Options{
		"noinline":    {NoInline: true},
		"telemetered": {Log: flight.New(10, 10, 10, 4), Telemetry: &Telemetry{Label: "x", Done: func(*telemetry.Run) {}}},
	} {
		if got := runOn(opts); got != plain {
			t.Errorf("%s: %+v, want %+v", name, got, plain)
		}
	}
}

// TestRunReportsUnfinishedCore: a core that never ran — here one built
// on another rig's queue, so nothing on this rig's queue steps it — is
// reported by its ID.
func TestRunReportsUnfinishedCore(t *testing.T) {
	r, err := New(memsys.DefaultConfig(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(memsys.DefaultConfig(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ok := cpu.New(0, r.Queue(), r.Mem(), loads(4), nil)
	stray := cpu.New(1, other.Queue(), other.Mem(), loads(4), nil)
	err = r.Run(ok, stray)
	if err == nil || err.Error() != "core 1 did not finish" {
		t.Fatalf("Run = %v, want core 1 reported unfinished", err)
	}
}
