package farm

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gsdram/internal/resultcache"
	"gsdram/internal/spec"
)

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Engine) {
	t.Helper()
	cache, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	e := New(cache, opts)
	e.Start()
	ts := httptest.NewServer(NewServer(e, nil))
	t.Cleanup(ts.Close)
	return ts, e
}

func TestServerSweepLifecycle(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestServer(t, Options{Workers: 2, Runner: fakeRunner(&calls)})
	client := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := client.Healthy(ctx); err != nil {
		t.Fatalf("Healthy: %v", err)
	}

	points := []spec.Spec{point(1), point(2)}
	ack, err := client.Submit(ctx, points)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if ack.Total != 2 || len(ack.Points) != 2 {
		t.Fatalf("ack = %+v; want 2 points", ack)
	}
	for i, p := range ack.Points {
		if p.Hash != points[i].Normalized().Hash() {
			t.Fatalf("ack point %d hash %q != local hash", i, p.Hash)
		}
	}

	// Stream until done; the events must cover both points.
	var events []Event
	if err := client.Stream(ctx, ack.ID, func(ev Event) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.Totals == nil || last.Totals.Done != 2 {
		t.Fatalf("stream ended with %+v; want done totals", last)
	}

	// Status snapshot agrees.
	js, err := client.Job(ctx, ack.ID)
	if err != nil {
		t.Fatalf("Job: %v", err)
	}
	if !js.Complete || js.Totals.Done != 2 || len(js.Points) != 2 {
		t.Fatalf("job status = %+v", js)
	}

	// Every point's document is fetchable and matches the cache.
	for _, p := range js.Points {
		doc, ok, err := client.Result(ctx, p.Hash)
		if err != nil || !ok {
			t.Fatalf("Result %s: ok=%v err=%v", p.Hash, ok, err)
		}
		if !bytes.Contains(doc, []byte(p.Hash)) {
			t.Fatalf("document for %s does not mention its hash", p.Hash)
		}
	}

	// A late stream replay sees the full history, not just new events.
	var replay []Event
	if err := client.Stream(ctx, ack.ID, func(ev Event) error {
		replay = append(replay, ev)
		return nil
	}); err != nil {
		t.Fatalf("replay Stream: %v", err)
	}
	if len(replay) != len(events) {
		t.Fatalf("replay saw %d events; live stream saw %d", len(replay), len(events))
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Jobs != 1 || st.Cache.Puts != 2 {
		t.Fatalf("stats = %+v; want 1 job, 2 puts", st)
	}
}

func TestServerErrors(t *testing.T) {
	ts, e := newTestServer(t, Options{Workers: 1, Runner: fakeRunner(new(atomic.Int64))})
	client := NewClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Unknown job and unknown result are 404s.
	if _, err := client.Job(ctx, "job-999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown job error = %v; want HTTP 404", err)
	}
	hash := strings.Repeat("ab", 32)
	if _, ok, err := client.Result(ctx, hash); ok || err != nil {
		t.Fatalf("unknown result = ok=%v err=%v; want miss", ok, err)
	}

	// A malformed body is a 400.
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = HTTP %d; want 400", resp.StatusCode)
	}

	// A sample section with a field sample.Config does not have (the
	// deleted bounded-warming knob) is a 400, not silently dropped.
	ffwarm := `{"points":[{"experiment":"fig9","tuples":1024,"txns":50,"gemm_sizes":[32],` +
		`"kvpairs":256,"vertices":512,"degree":4,"seed":1,` +
		`"sample":{"interval":16384,"warmup":512,"measure":1024,"seed":1,"ffwarm":4096}}]}`
	resp, err = http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(ffwarm))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sample section with ffwarm = HTTP %d; want 400", resp.StatusCode)
	}

	// An invalid point is a 400 with the validation message.
	bad := point(1)
	bad.Experiment = "nope"
	if _, err := client.Submit(ctx, []spec.Spec{bad}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("invalid point error = %v; want unknown experiment", err)
	}

	// A draining engine refuses sweeps with 503.
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := client.Submit(ctx, []spec.Spec{point(1)}); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("draining submit error = %v; want HTTP 503", err)
	}
}
