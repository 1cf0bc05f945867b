package farm

import (
	"context"
	"sync"
	"time"

	"gsdram/internal/spec"
)

// PointStatus is a sweep point's lifecycle state.
type PointStatus string

const (
	PointPending PointStatus = "pending"
	PointRunning PointStatus = "running"
	// PointDone means the point's document is in the cache — either this
	// job executed it (Cached=false) or the hash was already stored
	// (Cached=true).
	PointDone   PointStatus = "done"
	PointFailed PointStatus = "failed"
)

// SpanRec is one closed lifecycle span of a sweep point. Times are
// nanosecond offsets from the job's submission instant, so spans from
// different points of one job share a time base and overlap analysis
// (did two points execute concurrently?) is a plain interval check.
type SpanRec struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// The span taxonomy, in lifecycle order. A point emits queued exactly
// once; the remaining spans follow runPoint's loop (cache_probe on
// every iteration, singleflight_wait only for followers, running and
// store only for the leader).
const (
	SpanQueued           = "queued"
	SpanCacheProbe       = "cache_probe"
	SpanSingleflightWait = "singleflight_wait"
	SpanRunning          = "running"
	SpanStore            = "store"
)

// Point is one sweep point and its progress.
type Point struct {
	Spec   spec.Spec   `json:"spec"`
	Hash   string      `json:"hash"`
	Status PointStatus `json:"status"`
	Cached bool        `json:"cached"`
	WallNS int64       `json:"wall_ns"`
	Error  string      `json:"error,omitempty"`
	// Spans is the point's closed lifecycle spans in completion order.
	Spans []SpanRec `json:"spans,omitempty"`
}

// Totals summarises a job's points.
type Totals struct {
	Points int `json:"points"`
	Done   int `json:"done"`
	// Cached points completed from the result cache without executing;
	// Executed points ran a simulation. Done = Cached + Executed.
	Cached   int `json:"cached"`
	Executed int `json:"executed"`
	Failed   int `json:"failed"`
	// WallNS is the job's wall-clock time, set once it completes.
	WallNS int64 `json:"wall_ns"`
}

// Event is one entry in a job's progress stream (NDJSON on the wire).
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "point", "span" or "done"
	Job  string `json:"job"`
	// Point fields (Type == "point" or "span").
	Index  int         `json:"index"`
	Hash   string      `json:"hash,omitempty"`
	Status PointStatus `json:"status,omitempty"`
	Cached bool        `json:"cached,omitempty"`
	WallNS int64       `json:"wall_ns,omitempty"`
	Error  string      `json:"error,omitempty"`
	// Span is the closed lifecycle span of a "span" event.
	Span *SpanRec `json:"span,omitempty"`
	// Totals is set on the final "done" event.
	Totals *Totals `json:"totals,omitempty"`
}

// Job tracks one submitted sweep.
type Job struct {
	ID string

	mu      sync.Mutex
	points  []*Point
	events  []Event
	changed chan struct{}
	began   time.Time
	totals  Totals
}

func newJob(id string, points []*Point) *Job {
	return &Job{
		ID:      id,
		points:  points,
		changed: make(chan struct{}),
		began:   time.Now(),
		totals:  Totals{Points: len(points)},
	}
}

// wake wakes every waiter; call with j.mu held.
func (j *Job) wake() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// offset returns nanoseconds since the job was submitted — the time
// base every SpanRec of this job uses.
func (j *Job) offset() int64 { return time.Since(j.began).Nanoseconds() }

// span closes a lifecycle span for point i that began at startNS (an
// earlier j.offset() value), records it on the point, and emits a
// "span" event.
func (j *Job) span(i int, name string, startNS int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := SpanRec{Name: name, StartNS: startNS, DurNS: j.offset() - startNS}
	p := j.points[i]
	p.Spans = append(p.Spans, rec)
	j.emit(Event{Type: "span", Index: i, Hash: p.Hash, Span: &rec})
}

// start marks point i running and returns it, closing its queued span
// (submission → first processing). The returned Point's Spec and Hash
// are immutable after Submit, so the executor may read them without the
// job lock.
func (j *Job) start(i int) *Point {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := j.points[i]
	p.Status = PointRunning
	j.emit(Event{Type: "point", Index: i, Hash: p.Hash, Status: PointRunning})
	rec := SpanRec{Name: SpanQueued, StartNS: 0, DurNS: j.offset()}
	p.Spans = append(p.Spans, rec)
	j.emit(Event{Type: "span", Index: i, Hash: p.Hash, Span: &rec})
	return p
}

// finish marks point i done and emits its event (plus the job's "done"
// event when it is the last point).
func (j *Job) finish(i int, cached bool, wallNS int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := j.points[i]
	p.Status = PointDone
	p.Cached = cached
	p.WallNS = wallNS
	j.totals.Done++
	if cached {
		j.totals.Cached++
	} else {
		j.totals.Executed++
	}
	j.emit(Event{Type: "point", Index: i, Hash: p.Hash, Status: PointDone,
		Cached: cached, WallNS: wallNS})
	j.maybeComplete()
}

// fail marks point i failed.
func (j *Job) fail(i int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := j.points[i]
	p.Status = PointFailed
	p.Error = err.Error()
	j.totals.Failed++
	j.emit(Event{Type: "point", Index: i, Hash: p.Hash, Status: PointFailed,
		Error: p.Error})
	j.maybeComplete()
}

// emit appends an event and wakes waiters; call with j.mu held.
func (j *Job) emit(ev Event) {
	ev.Seq = len(j.events)
	ev.Job = j.ID
	j.events = append(j.events, ev)
	j.wake()
}

// maybeComplete emits the terminal "done" event; call with j.mu held.
func (j *Job) maybeComplete() {
	if j.totals.Done+j.totals.Failed == j.totals.Points {
		j.totals.WallNS = time.Since(j.began).Nanoseconds()
		t := j.totals
		j.emit(Event{Type: "done", Totals: &t})
	}
}

// Complete reports whether every point reached a terminal state.
func (j *Job) Complete() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.complete()
}

func (j *Job) complete() bool {
	return j.totals.Done+j.totals.Failed == j.totals.Points
}

// Totals snapshots the job's counters.
func (j *Job) Totals() Totals {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.totals
}

// Points snapshots every point.
func (j *Job) Points() []Point {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Point, len(j.points))
	for i, p := range j.points {
		out[i] = *p
	}
	return out
}

// EventsSince returns the events at sequence >= from, a channel that is
// closed when more arrive, and whether the job is complete. A streamer
// loops: deliver the batch, and if not complete, wait on the channel.
func (j *Job) EventsSince(from int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []Event
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.changed, j.complete()
}

// Wait blocks until the job completes or ctx is done.
func (j *Job) Wait(ctx context.Context) error {
	seq := 0
	for {
		evs, ch, done := j.EventsSince(seq)
		seq += len(evs)
		if done {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
