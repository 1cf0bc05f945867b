package farm

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"gsdram/internal/resultcache"
	"gsdram/internal/spec"
)

// point returns a valid quick spec distinguished by seed.
func point(seed uint64) spec.Spec {
	return spec.Spec{
		Experiment: "fig9",
		Tuples:     1024,
		Txns:       50,
		GemmSizes:  []int{32},
		KVPairs:    256,
		Vertices:   512,
		Degree:     4,
		Seed:       seed,
	}
}

// fakeRunner counts executions and fabricates a document per hash.
func fakeRunner(calls *atomic.Int64) Runner {
	return func(s *spec.Spec) ([]byte, error) {
		calls.Add(1)
		return []byte(fmt.Sprintf("{\"doc\":%q}\n", s.Hash())), nil
	}
}

func newEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	e := New(cache, opts)
	e.Start()
	return e
}

func wait(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not complete: %v", j.ID, err)
	}
}

func TestColdThenWarmSweep(t *testing.T) {
	var calls atomic.Int64
	e := newEngine(t, Options{Workers: 4, Runner: fakeRunner(&calls)})

	points := []spec.Spec{point(1), point(2), point(3)}
	j1, err := e.Submit(points)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	wait(t, j1)
	if tot := j1.Totals(); tot.Executed != 3 || tot.Cached != 0 || tot.Failed != 0 {
		t.Fatalf("cold totals = %+v; want 3 executed", tot)
	}
	if calls.Load() != 3 {
		t.Fatalf("cold sweep ran %d simulations; want 3", calls.Load())
	}

	// Record the cold documents.
	cold := map[string][]byte{}
	for _, p := range j1.Points() {
		doc, ok, err := e.Cache().Get(p.Hash)
		if err != nil || !ok {
			t.Fatalf("cold doc %s: ok=%v err=%v", p.Hash, ok, err)
		}
		cold[p.Hash] = doc
	}

	// Warm resubmit: zero executions, everything from the cache,
	// byte-identical documents.
	j2, err := e.Submit(points)
	if err != nil {
		t.Fatalf("warm Submit: %v", err)
	}
	wait(t, j2)
	if tot := j2.Totals(); tot.Executed != 0 || tot.Cached != 3 || tot.Failed != 0 {
		t.Fatalf("warm totals = %+v; want 3 cached", tot)
	}
	if calls.Load() != 3 {
		t.Fatalf("warm sweep ran %d extra simulations", calls.Load()-3)
	}
	for _, p := range j2.Points() {
		doc, ok, err := e.Cache().Get(p.Hash)
		if err != nil || !ok {
			t.Fatalf("warm doc %s: ok=%v err=%v", p.Hash, ok, err)
		}
		if !bytes.Equal(doc, cold[p.Hash]) {
			t.Fatalf("warm doc %s differs from cold doc", p.Hash)
		}
		if !p.Cached {
			t.Fatalf("warm point %s not marked cached", p.Hash)
		}
	}
}

// TestCorruptCachedDocumentReexecutes: a cached document whose bytes
// no longer match their checksum is a miss, so resubmitting its point
// runs it again instead of serving the corrupt bytes.
func TestCorruptCachedDocumentReexecutes(t *testing.T) {
	var calls atomic.Int64
	e := newEngine(t, Options{Workers: 1, Runner: fakeRunner(&calls)})
	p := point(1)
	j1, err := e.Submit([]spec.Spec{p})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	wait(t, j1)
	hash := j1.Points()[0].Hash
	path := filepath.Join(e.Cache().Dir(), hash[:2], hash+".json")
	stored, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stored[:len(stored)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := e.Submit([]spec.Spec{p})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	wait(t, j2)
	if tot := j2.Totals(); tot.Executed != 1 || tot.Cached != 0 || tot.Failed != 0 {
		t.Fatalf("totals after corruption = %+v; want 1 executed, 0 cached", tot)
	}
	if calls.Load() != 2 {
		t.Fatalf("ran %d simulations; want 2", calls.Load())
	}
	doc, ok, err := e.Cache().Get(hash)
	if err != nil || !ok || string(doc) != fmt.Sprintf("{\"doc\":%q}\n", hash) {
		t.Fatalf("re-executed document = %q ok=%v err=%v", doc, ok, err)
	}
}

// TestDeltaSweep: resubmitting a sweep with one changed point
// re-executes only that point.
func TestDeltaSweep(t *testing.T) {
	var calls atomic.Int64
	e := newEngine(t, Options{Workers: 2, Runner: fakeRunner(&calls)})

	j1, err := e.Submit([]spec.Spec{point(1), point(2)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	wait(t, j1)
	if calls.Load() != 2 {
		t.Fatalf("cold sweep ran %d simulations; want 2", calls.Load())
	}

	j2, err := e.Submit([]spec.Spec{point(1), point(2), point(3)})
	if err != nil {
		t.Fatalf("delta Submit: %v", err)
	}
	wait(t, j2)
	if tot := j2.Totals(); tot.Executed != 1 || tot.Cached != 2 {
		t.Fatalf("delta totals = %+v; want 1 executed, 2 cached", tot)
	}
	if calls.Load() != 3 {
		t.Fatalf("delta sweep ran %d total simulations; want 3", calls.Load())
	}
}

// TestSingleflight: identical points submitted together execute once;
// the followers wait for the leader and take its cached document.
func TestSingleflight(t *testing.T) {
	var calls atomic.Int64
	slow := func(s *spec.Spec) ([]byte, error) {
		calls.Add(1)
		time.Sleep(100 * time.Millisecond)
		return []byte("{\"doc\":true}\n"), nil
	}
	e := newEngine(t, Options{Workers: 4, Runner: slow})

	j, err := e.Submit([]spec.Spec{point(9), point(9), point(9), point(9)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	wait(t, j)
	if got := calls.Load(); got != 1 {
		t.Fatalf("4 identical in-flight points ran %d simulations; want 1", got)
	}
	tot := j.Totals()
	if tot.Executed != 1 || tot.Cached != 3 || tot.Failed != 0 {
		t.Fatalf("totals = %+v; want 1 executed, 3 cached", tot)
	}
}

// TestRetriesExhausted: a failing point is executed exactly once and
// marked failed — the simulation is deterministic, so a re-run would
// fail the same way — and the job still completes. A worker panic
// fails its point like an error does instead of taking the engine down.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	broken := func(s *spec.Spec) ([]byte, error) {
		if calls.Add(1) == 1 {
			panic("simulated worker crash")
		}
		return nil, fmt.Errorf("injected failure")
	}
	e := newEngine(t, Options{Workers: 1, Runner: broken})

	j, err := e.Submit([]spec.Spec{point(1), point(2)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	wait(t, j)
	if calls.Load() != 2 { // one execution per point
		t.Fatalf("ran %d executions; want 2", calls.Load())
	}
	tot := j.Totals()
	if tot.Failed != 2 || tot.Done != 0 {
		t.Fatalf("totals = %+v; want 2 failed", tot)
	}
	for _, p := range j.Points() {
		if p.Status != PointFailed || p.Error == "" {
			t.Fatalf("point = %+v; want failed with an error", p)
		}
	}
}

func TestSubmitValidates(t *testing.T) {
	e := newEngine(t, Options{Workers: 1, Runner: fakeRunner(new(atomic.Int64))})
	if _, err := e.Submit(nil); err == nil {
		t.Fatalf("Submit accepted an empty sweep")
	}
	bad := point(1)
	bad.Experiment = "nope"
	if _, err := e.Submit([]spec.Spec{bad}); err == nil {
		t.Fatalf("Submit accepted an invalid point")
	}
}

// TestSubmitStampsEngineFingerprint: the engine's code produces a
// point's result, so the point is keyed under the engine's fingerprint,
// never under one the client supplied.
func TestSubmitStampsEngineFingerprint(t *testing.T) {
	e := newEngine(t, Options{Workers: 1, Runner: fakeRunner(new(atomic.Int64))})
	foreign := point(1)
	foreign.Fingerprint = "foreign"
	j, err := e.Submit([]spec.Spec{foreign})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	wait(t, j)
	want := point(1)
	want.Fingerprint = spec.DefaultFingerprint()
	p := j.Points()[0]
	if p.Spec.Fingerprint != want.Fingerprint || p.Hash != want.Hash() {
		t.Fatalf("point keyed as (%q, %s); want the engine's (%q, %s)",
			p.Spec.Fingerprint, p.Hash, want.Fingerprint, want.Hash())
	}
	if _, ok, err := e.Cache().Get(want.Hash()); !ok || err != nil {
		t.Fatalf("no document under the engine's hash: ok=%v err=%v", ok, err)
	}
}

// TestDrain: draining finishes accepted work, then rejects new sweeps.
func TestDrain(t *testing.T) {
	var calls atomic.Int64
	slow := func(s *spec.Spec) ([]byte, error) {
		calls.Add(1)
		time.Sleep(50 * time.Millisecond)
		return []byte("{}\n"), nil
	}
	e := newEngine(t, Options{Workers: 2, Runner: slow})
	j, err := e.Submit([]spec.Spec{point(1), point(2), point(3)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !j.Complete() {
		t.Fatalf("drained engine left the job incomplete")
	}
	if tot := j.Totals(); tot.Done != 3 {
		t.Fatalf("totals after drain = %+v; want 3 done", tot)
	}
	if _, err := e.Submit([]spec.Spec{point(4)}); err != ErrDraining {
		t.Fatalf("Submit while draining = %v; want ErrDraining", err)
	}
}

// TestEvents: the event stream is sequenced, carries every point's
// terminal state, and ends with the "done" event and totals.
func TestEvents(t *testing.T) {
	var calls atomic.Int64
	e := newEngine(t, Options{Workers: 1, Runner: fakeRunner(&calls)})
	j, err := e.Submit([]spec.Spec{point(1), point(2)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	wait(t, j)

	evs, _, done := j.EventsSince(0)
	if !done {
		t.Fatalf("EventsSince on a complete job reported not done")
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Job != j.ID {
			t.Fatalf("event %d has job %q", i, ev.Job)
		}
	}
	last := evs[len(evs)-1]
	if last.Type != "done" || last.Totals == nil || last.Totals.Done != 2 {
		t.Fatalf("last event = %+v; want done with totals", last)
	}
	terminal := 0
	for _, ev := range evs {
		if ev.Type == "point" && ev.Status == PointDone {
			terminal++
		}
	}
	if terminal != 2 {
		t.Fatalf("saw %d terminal point events; want 2", terminal)
	}
}

// TestEngineRealRunner runs the default runner (spec.RunDocument) once
// cold and once warm: the warm point must come from the cache with the
// byte-identical document and zero additional simulation work.
func TestEngineRealRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	e := newEngine(t, Options{Workers: 1})
	pts := []spec.Spec{point(1)}

	j1, err := e.Submit(pts)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	wait(t, j1)
	if tot := j1.Totals(); tot.Executed != 1 || tot.Failed != 0 {
		t.Fatalf("cold totals = %+v", tot)
	}
	hash := j1.Points()[0].Hash
	cold, ok, err := e.Cache().Get(hash)
	if err != nil || !ok {
		t.Fatalf("cold doc: ok=%v err=%v", ok, err)
	}

	j2, err := e.Submit(pts)
	if err != nil {
		t.Fatalf("warm Submit: %v", err)
	}
	wait(t, j2)
	if tot := j2.Totals(); tot.Cached != 1 || tot.Executed != 0 {
		t.Fatalf("warm totals = %+v; want 1 cached", tot)
	}
	warm, ok, err := e.Cache().Get(hash)
	if err != nil || !ok {
		t.Fatalf("warm doc: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm document differs from cold document")
	}
}

// TestFlightDumpOnFailure: with FlightDir set, a failed point produces
// a flight dump — a deterministic re-run of the spec with the event
// rings armed — named by the point's short hash.
func TestFlightDumpOnFailure(t *testing.T) {
	var calls atomic.Int64
	broken := func(s *spec.Spec) ([]byte, error) {
		calls.Add(1)
		return nil, fmt.Errorf("injected failure")
	}
	dir := t.TempDir()
	e := newEngine(t, Options{Workers: 1, Runner: broken, FlightDir: dir})

	p := point(1)
	j, err := e.Submit([]spec.Spec{p})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	wait(t, j)
	if tot := j.Totals(); tot.Failed != 1 {
		t.Fatalf("totals = %+v; want 1 failed", tot)
	}
	path := filepath.Join(dir, shortHash(j.Points()[0].Hash)+".flight.ndjson")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("flight dump missing: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(blob), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("flight dump has %d lines, want meta + events", len(lines))
	}
	if !bytes.Contains(lines[0], []byte("gsdram-flight/1")) {
		t.Fatalf("bad meta line: %s", lines[0])
	}
	// One dump per failed point.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("flight dir holds %d files, want 1", len(entries))
	}
}

// TestNoFlightDumpWhenDisabled: the default (no FlightDir) writes
// nothing anywhere on failure.
func TestNoFlightDumpWhenDisabled(t *testing.T) {
	broken := func(s *spec.Spec) ([]byte, error) { return nil, fmt.Errorf("boom") }
	e := newEngine(t, Options{Workers: 1, Runner: broken})
	j, err := e.Submit([]spec.Spec{point(2)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	wait(t, j)
	if tot := j.Totals(); tot.Failed != 1 {
		t.Fatalf("totals = %+v; want 1 failed", tot)
	}
}
