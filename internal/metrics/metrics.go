// Package metrics is the unified telemetry substrate of the simulator: a
// registry of named counters, gauges, and power-of-2-bucketed histograms
// that every timed component (cores, caches, memory system, memory
// controller, DRAM ranks, energy model) registers into at construction.
//
// Design constraints, in priority order:
//
//   - Zero hot-path cost. A Counter is a plain uint64 under a defined
//     type, so components keep it as an ordinary struct field and
//     increment it with ++ exactly as the ad-hoc stats structs did; the
//     registry only holds *pointers* taken at construction time. No
//     atomic operations are needed because each simulation rig is
//     single-threaded (the parallel harness gives every run its own rig).
//   - Disabled-by-default. All Register* methods are no-ops on a nil
//     *Registry, so components register unconditionally and a rig built
//     without telemetry pays nothing but the counter increments it
//     already performed.
//   - Determinism. Entries are kept in registration order, which is
//     itself deterministic (construction order of the rig), so the epoch
//     sampler's flattened value rows are comparable across runs and
//     worker counts.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
)

// Counter is a monotonically increasing event count. It is a defined
// uint64 so components hold it by value and increment it in place.
type Counter uint64

// Inc adds one.
func (c *Counter) Inc() { *c++ }

// Add adds n.
func (c *Counter) Add(n uint64) { *c += Counter(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return uint64(*c) }

// Gauge is an instantaneous signed value (queue depth, occupancy).
type Gauge int64

// Set replaces the value.
func (g *Gauge) Set(v int64) { *g = Gauge(v) }

// Add adjusts the value by d.
func (g *Gauge) Add(d int64) { *g += Gauge(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return int64(*g) }

// HistBuckets is the number of power-of-2 histogram buckets: bucket 0
// counts observations of 0, bucket i >= 1 counts values v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
const HistBuckets = 65

// Histogram is a power-of-2-bucketed distribution of uint64 samples.
// Observe is a bit-length computation plus three increments, cheap
// enough to run unconditionally on per-request (not per-cycle) paths.
type Histogram struct {
	Buckets [HistBuckets]uint64
	N       uint64
	Total   uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.Buckets[bits.Len64(v)]++
	h.N++
	h.Total += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.N }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.Total }

// Mean returns the average observation, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Total) / float64(h.N)
}

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// BucketHigh returns the inclusive upper bound of bucket i.
func BucketHigh(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= HistBuckets-1 {
		return math.MaxUint64
	}
	return 1<<i - 1
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of the
// recorded distribution: the inclusive upper bound of the bucket holding
// the ceil(q*N)-th smallest observation. With pow2 buckets this is exact
// to within a factor of 2, which is all the latency percentiles need.
// Returns 0 with no samples.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.N == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.N)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, n := range h.Buckets {
		seen += n
		if seen >= rank {
			return BucketHigh(i)
		}
	}
	return BucketHigh(HistBuckets - 1)
}

// Kind classifies a registry entry.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "unknown"
	}
}

// entry is one registered metric. Exactly one of the value fields is
// set, according to kind; gaugeFn substitutes for gauge when the value
// is computed at read time (e.g. a queue length).
type entry struct {
	name    string
	kind    Kind
	counter *Counter
	gauge   *Gauge
	gaugeFn func() int64
	hist    *Histogram
}

// Registry is an ordered collection of named metrics. The zero value is
// not useful; use New. A nil *Registry is the disabled state: every
// method is a no-op (or returns an empty result), so callers never
// branch on enablement.
type Registry struct {
	entries []entry
	index   map[string]int
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{index: map[string]int{}}
}

// add appends an entry, panicking on duplicate names — duplicates are
// always a wiring bug and the panic surfaces it at construction, never
// mid-run.
func (r *Registry) add(e entry) {
	if _, dup := r.index[e.name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", e.name))
	}
	r.index[e.name] = len(r.entries)
	r.entries = append(r.entries, e)
}

// RegisterCounter registers c under name. No-op on a nil registry.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil {
		return
	}
	r.add(entry{name: name, kind: KindCounter, counter: c})
}

// RegisterGauge registers g under name. No-op on a nil registry.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	if r == nil {
		return
	}
	r.add(entry{name: name, kind: KindGauge, gauge: g})
}

// RegisterGaugeFunc registers a gauge whose value is computed by fn at
// read time. No-op on a nil registry.
func (r *Registry) RegisterGaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.add(entry{name: name, kind: KindGauge, gaugeFn: fn})
}

// RegisterHistogram registers h under name. No-op on a nil registry.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	if r == nil {
		return
	}
	r.add(entry{name: name, kind: KindHistogram, hist: h})
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.entries)
}

// Names returns the metric names in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	names := make([]string, len(r.entries))
	for i, e := range r.entries {
		names[i] = e.name
	}
	return names
}

// gaugeValue reads a gauge entry.
func (e *entry) gaugeValue() int64 {
	if e.gaugeFn != nil {
		return e.gaugeFn()
	}
	return e.gauge.Value()
}

// SampleColumns returns the flattened column names the epoch sampler
// records: one column per counter or gauge, two (count, sum) per
// histogram, in registration order.
func (r *Registry) SampleColumns() []string {
	if r == nil {
		return nil
	}
	cols := make([]string, 0, len(r.entries))
	for _, e := range r.entries {
		switch e.kind {
		case KindHistogram:
			cols = append(cols, e.name+".count", e.name+".sum")
		default:
			cols = append(cols, e.name)
		}
	}
	return cols
}

// SampleKinds returns the kind of each flattened sample column, aligned
// with SampleColumns: a histogram contributes two KindCounter columns
// (its count and sum are both monotonic).
func (r *Registry) SampleKinds() []Kind {
	if r == nil {
		return nil
	}
	kinds := make([]Kind, 0, len(r.entries))
	for _, e := range r.entries {
		switch e.kind {
		case KindHistogram:
			kinds = append(kinds, KindCounter, KindCounter)
		default:
			kinds = append(kinds, e.kind)
		}
	}
	return kinds
}

// SampleInto appends the current flattened values (aligned with
// SampleColumns) to dst and returns the extended slice. Gauge values are
// stored as their two's-complement bit pattern.
func (r *Registry) SampleInto(dst []uint64) []uint64 {
	if r == nil {
		return dst
	}
	for i := range r.entries {
		e := &r.entries[i]
		switch e.kind {
		case KindCounter:
			dst = append(dst, e.counter.Value())
		case KindGauge:
			dst = append(dst, uint64(e.gaugeValue()))
		case KindHistogram:
			dst = append(dst, e.hist.Count(), e.hist.Sum())
		}
	}
	return dst
}

// HistogramExport is the JSON shape of one exported histogram.
type HistogramExport struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean"`
	// Buckets maps the lower bound of each non-empty power-of-2 bucket
	// to its count.
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// Export returns a name → value map of every metric for JSON output:
// counters as uint64, gauges as int64, histograms as HistogramExport.
// encoding/json sorts map keys, so the output is deterministic.
func (r *Registry) Export() map[string]any {
	if r == nil {
		return nil
	}
	out := make(map[string]any, len(r.entries))
	for i := range r.entries {
		e := &r.entries[i]
		switch e.kind {
		case KindCounter:
			out[e.name] = e.counter.Value()
		case KindGauge:
			out[e.name] = e.gaugeValue()
		case KindHistogram:
			h := HistogramExport{Count: e.hist.Count(), Sum: e.hist.Sum(), Mean: e.hist.Mean()}
			for b, n := range e.hist.Buckets {
				if n > 0 {
					if h.Buckets == nil {
						h.Buckets = map[string]uint64{}
					}
					h.Buckets[fmt.Sprint(BucketLow(b))] = n
				}
			}
			out[e.name] = h
		}
	}
	return out
}

// Each calls fn for every metric in registration order with its current
// scalar value: counter count, gauge value, histogram observation count.
func (r *Registry) Each(fn func(name string, kind Kind, value int64)) {
	if r == nil {
		return
	}
	for i := range r.entries {
		e := &r.entries[i]
		switch e.kind {
		case KindCounter:
			fn(e.name, KindCounter, int64(e.counter.Value()))
		case KindGauge:
			fn(e.name, KindGauge, e.gaugeValue())
		case KindHistogram:
			fn(e.name, KindHistogram, int64(e.hist.Count()))
		}
	}
}
