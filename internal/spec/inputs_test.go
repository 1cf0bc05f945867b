package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"gsdram/internal/bench"
)

// clearHeld empties the input memo, so the next fig12 runs its inputs.
func clearHeld() {
	held.Lock()
	held.m = nil
	held.Unlock()
}

// heldFor returns the result held for an experiment, or nil.
func heldFor(exp string) any {
	held.Lock()
	defer held.Unlock()
	return held.m[exp].result
}

// specFor is quickSpec for another experiment.
func specFor(exp string) *Spec {
	s := quickSpec()
	s.Experiment = exp
	return s
}

func mustRun(t *testing.T, s *Spec) *Outcome {
	t.Helper()
	out, err := Run(s)
	if err != nil {
		t.Fatalf("%s: %v", s.Experiment, err)
	}
	return out
}

// recordJSON renders an outcome's document record with wall_ns zeroed.
func recordJSON(out *Outcome) ([]byte, error) {
	rec := out.Record()
	rec.WallNS = 0
	return json.Marshal(rec)
}

func recordBytes(t *testing.T, out *Outcome) []byte {
	t.Helper()
	b, err := recordJSON(out)
	if err != nil {
		t.Fatalf("marshal record: %v", err)
	}
	return b
}

func fig12Of(t *testing.T, out *Outcome) *bench.Fig12Result {
	t.Helper()
	r, ok := out.Result.(*bench.Fig12Result)
	if !ok {
		t.Fatalf("fig12 result is %T", out.Result)
	}
	return r
}

// TestFig12ReusesHeldInputs: after untelemetered fig9 and fig10 specs,
// fig12 of the same knobs is built from their very results (so no rig
// ran), and its record equals the one fig12 computes with an empty memo.
func TestFig12ReusesHeldInputs(t *testing.T) {
	clearHeld()
	fresh := mustRun(t, specFor("fig12"))

	out9 := mustRun(t, specFor("fig9"))
	out10 := mustRun(t, specFor("fig10"))
	reused := mustRun(t, specFor("fig12"))
	r := fig12Of(t, reused)
	if r.Fig9 != out9.Result.(*bench.Fig9Result) {
		t.Errorf("fig12 re-ran fig9 instead of reusing its result")
	}
	if r.Fig10 != out10.Result.(*bench.Fig10Result) {
		t.Errorf("fig12 re-ran fig10 instead of reusing its result")
	}
	if got, want := recordBytes(t, reused), recordBytes(t, fresh); !bytes.Equal(got, want) {
		t.Fatalf("fig12 from held inputs differs from a fresh fig12")
	}
}

// TestFig12RecomputesOnAnyKnob: the memo key is the whole spec, so a
// fig12 differing from the held inputs in any one knob runs its inputs
// with its own knobs.
func TestFig12RecomputesOnAnyKnob(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"seed", func(s *Spec) { s.Seed++ }},
		{"tuples", func(s *Spec) { s.Tuples *= 2 }},
		{"txns", func(s *Spec) { s.Txns++ }},
		{"workers", func(s *Spec) { s.Workers = 2 }},
		{"noinline", func(s *Spec) { s.NoInline = true }},
		{"l2latency", func(s *Spec) { s.L2Latency = 30 }},
		{"sample", func(s *Spec) { s.Sample = &Sample{Interval: 512, Warmup: 64, Measure: 64, Seed: 3} }},
		{"fingerprint", func(s *Spec) { s.Fingerprint = "test:other-build" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clearHeld()
			out9 := mustRun(t, specFor("fig9"))
			out10 := mustRun(t, specFor("fig10"))
			s := specFor("fig12")
			tc.mutate(s)
			r := fig12Of(t, mustRun(t, s))
			if r.Fig9 == out9.Result.(*bench.Fig9Result) || r.Fig10 == out10.Result.(*bench.Fig10Result) {
				t.Fatalf("fig12 with a different %s reused the held inputs", tc.name)
			}
			want := s.Normalized().BenchOptions()
			if !reflect.DeepEqual(r.Fig9.Opts, want) || !reflect.DeepEqual(r.Fig10.Opts, want) {
				t.Fatalf("fig12's inputs ran with %+v / %+v, want %+v", r.Fig9.Opts, r.Fig10.Opts, want)
			}
		})
	}
}

// TestTelemeteredFig12RunsItsInputs: telemetered specs neither write nor
// read the memo, so a telemetered fig12 carries the telemetry of all 36
// of its runs even right after telemetered and untelemetered fig9 and
// fig10.
func TestTelemeteredFig12RunsItsInputs(t *testing.T) {
	clearHeld()
	tel := func(exp string) *Spec {
		s := specFor(exp)
		s.Telemetry = true
		return s
	}
	t9 := mustRun(t, tel("fig9"))
	t10 := mustRun(t, tel("fig10"))
	if heldFor("fig9") != nil || heldFor("fig10") != nil {
		t.Fatalf("a telemetered run wrote the input memo")
	}
	mustRun(t, specFor("fig9"))
	mustRun(t, specFor("fig10"))

	out := mustRun(t, tel("fig12"))
	r := fig12Of(t, out)
	if r.Fig9 == heldFor("fig9") || r.Fig10 == heldFor("fig10") {
		t.Fatalf("a telemetered fig12 read the input memo")
	}
	// Capture.Drain sorts runs by label.
	var want []string
	for _, e := range append(t9.Telemetry, t10.Telemetry...) {
		want = append(want, e.Label)
	}
	sort.Strings(want)
	var got []string
	for _, e := range out.Telemetry {
		got = append(got, e.Label)
	}
	if len(got) != 36 || !reflect.DeepEqual(got, want) {
		t.Fatalf("telemetered fig12 carries %d runs %v, want fig9's and fig10's 36 %v", len(got), got, want)
	}

	// A flight dump re-runs everything as well: its runs are fig9's and
	// fig10's.
	var dump bytes.Buffer
	if err := DumpFlight(specFor("fig12"), &dump); err != nil {
		t.Fatalf("dump flight: %v", err)
	}
	for _, label := range want {
		if !bytes.Contains(dump.Bytes(), []byte(fmt.Sprintf("%q", label))) {
			t.Fatalf("fig12 flight dump has no run %s", label)
		}
	}
}

// TestConcurrentFig9AndFig12: fig9 and fig12 specs at different seeds
// run at once; every fig12 equals its serial execution. Run under -race.
func TestConcurrentFig9AndFig12(t *testing.T) {
	seeds := []uint64{7, 8}
	want := map[uint64][]byte{}
	for _, seed := range seeds {
		clearHeld()
		s := specFor("fig12")
		s.Seed = seed
		want[seed] = recordBytes(t, mustRun(t, s))
	}
	clearHeld()

	exps := []string{"fig9", "fig10", "fig12"}
	const rounds = 2
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(seeds)*len(exps))
	for round := 0; round < rounds; round++ {
		for _, seed := range seeds {
			for _, exp := range exps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := specFor(exp)
					s.Seed = seed
					out, err := Run(s)
					if err != nil {
						errs <- err
						return
					}
					if exp != "fig12" {
						return
					}
					if got, err := recordJSON(out); err != nil || !bytes.Equal(got, want[seed]) {
						errs <- fmt.Errorf("concurrent fig12 at seed %d differs from its serial run (%v)", seed, err)
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
