package main

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"

	"gsdram/internal/farm"
)

// endMetric is one end-to-end metric. Bound is the largest worsening of
// the median, as a share of the old median, that compare accepts; see
// the package comment for why the timing bounds are 25%.
type endMetric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// MinDelta is an absolute floor, in Unit, under the bound: a setup of
	// a few milliseconds moves by more than 25% on timer and scheduler
	// jitter alone.
	MinDelta float64
	// Only names the workloads the metric applies to; nil means all.
	Only []string
	// Listed marks the metrics BENCHMARK.json lists: those every workload
	// reports, that are never 0 and that hold steady on a shared host.
	// wall_s does not: it also counts the time other tenants hold the
	// vCPU. fail_frac is reported there as the failed and attempted
	// operation counts instead.
	Listed bool
}

var endToEnd = []endMetric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, Listed: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, MinDelta: 0.02, Listed: true},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2, Listed: true},
	{Name: "sim_mcycles_per_s", Unit: "Mcycles/s", Better: "higher", Bound: 0.25,
		Only: []string{"imdb-detailed", "indexed", "sampled"}},
	{Name: "programs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Only: []string{"stress"}},
	{Name: "cold_points_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Only: []string{"farm"}},
	{Name: "warm_points_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Only: []string{"farm"}},
	{Name: "sample_err_pct", Unit: "%", Better: "lower", Bound: 0, Only: []string{"sampled"}},
	{Name: "fail_frac", Unit: "ratio", Better: "lower", Bound: 0},
}

// appliesTo reports whether the metric is reported for workload w.
func (m endMetric) appliesTo(w string) bool {
	if m.Only == nil {
		return true
	}
	for _, o := range m.Only {
		if o == w {
			return true
		}
	}
	return false
}

func lookupEndMetric(name string) (endMetric, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return endMetric{}, false
}

// layerMetric is one per-layer metric, reported by traced runs for every
// workload; a layer the workload does not exercise reads 0.
type layerMetric struct {
	Name, Unit, Better string
}

// stallStages are the latency stages a stalled core's cycles are charged
// to; their shares sum to 1 by the stall-conservation invariant. The list
// is fixed, like suiteExperiments, so the metric names stay stable.
var stallStages = []string{
	"l1_hit", "l2_hit", "cache_lookup", "mshr_wait", "queue_wait",
	"bank_conflict", "data_transfer", "fill", "store_buffer",
}

// suiteExperiments are the registered experiments whose share of the
// suite wall time is reported. The list is fixed so the metric names stay
// stable when the registry changes; a missing experiment reads 0.
var suiteExperiments = []string{
	"table1", "fig7", "fig9", "fig9sampled", "fig10", "fig11", "fig12",
	"fig13", "kvstore", "graph", "channels", "impulse", "pattbits",
	"storebuf", "autogather", "schedpol", "pixels", "ablation",
	"hashjoin", "spmv", "ptrchase",
}

// farmSpans are the lifecycle spans of an executed farm point.
var farmSpans = []string{farm.SpanQueued, farm.SpanCacheProbe, farm.SpanRunning, farm.SpanStore}

// perLayer lists every per-layer metric in report order.
func perLayer() []layerMetric {
	var out []layerMetric
	for _, l := range layers {
		out = append(out, layerMetric{l + ".host_share", "ratio", "lower"})
	}
	out = append(out,
		layerMetric{"cpu.ns_per_instr", "ns/instr", "lower"},
		layerMetric{"cache.ns_per_access", "ns/access", "lower"},
		layerMetric{"memsys.ns_per_access", "ns/access", "lower"},
		layerMetric{"memctrl.ns_per_request", "ns/request", "lower"},
		layerMetric{"dram.ns_per_command", "ns/command", "lower"},
		layerMetric{"runtime.alloc_mb", "MB", "lower"},
		layerMetric{"runtime.gc_cycles", "count", "lower"},
		layerMetric{"runtime.gc_cpu_frac", "ratio", "lower"},
		layerMetric{"cpu.instructions", "count", "lower"},
		layerMetric{"cpu.ipc", "instr/cycle", "higher"},
		layerMetric{"cpu.mem_stall_frac", "ratio", "lower"},
	)
	for _, s := range stallStages {
		out = append(out, layerMetric{"stall." + s + "_share", "ratio", "lower"})
	}
	out = append(out,
		layerMetric{"cache.l1_hit_ratio", "ratio", "higher"},
		layerMetric{"cache.l2_hit_ratio", "ratio", "higher"},
		layerMetric{"memsys.accesses", "count", "lower"},
		layerMetric{"memsys.prefetch_useful_ratio", "ratio", "higher"},
		layerMetric{"memctrl.requests", "count", "lower"},
		layerMetric{"memctrl.row_hit_ratio", "ratio", "higher"},
		layerMetric{"memctrl.queue_wait_per_read", "cycles", "lower"},
		layerMetric{"memctrl.patterned_burst_frac", "ratio", "higher"},
		layerMetric{"dram.commands", "count", "lower"},
		layerMetric{"dram.bus_util", "ratio", "higher"},
		layerMetric{"sample.detail_frac", "ratio", "lower"},
	)
	for _, s := range farmSpans {
		out = append(out, layerMetric{"farm." + s + "_share", "ratio", "lower"})
	}
	out = append(out, layerMetric{"resultcache.hit_ratio", "ratio", "higher"})
	for _, e := range suiteExperiments {
		out = append(out, layerMetric{"exp." + e + ".wall_share", "ratio", "lower"})
	}
	return append(out, layerMetric{"trace.overhead_frac", "ratio", "lower"})
}

// simCounters sums integer telemetry metrics over captured runs, with
// per-core, per-cache and per-channel instances folded into one name
// ("core.1.stall.fill" → "core.stall.fill", "dram.ch0.rk1.acts" →
// "dram.acts"). core_cycles and channel_cycles accumulate each run's end
// cycle times its core and channel count.
type simCounters map[string]float64

func (c simCounters) addRun(end uint64, m map[string]any) {
	cores, channels := 0, 0
	for k, v := range m {
		x, ok := number(v)
		if !ok {
			continue // histograms
		}
		parts := strings.Split(k, ".")
		if len(parts) == 3 && parts[0] == "core" && parts[2] == "instructions" {
			cores++
		}
		if len(parts) == 3 && parts[0] == "memctrl" && parts[2] == "active_cycles" {
			channels++
		}
		kept := parts[:0]
		for _, p := range parts {
			if !isInstance(p) {
				kept = append(kept, p)
			}
		}
		c[strings.Join(kept, ".")] += x
	}
	c["core_cycles"] += float64(end) * float64(cores)
	c["channel_cycles"] += float64(end) * float64(channels)
}

// isInstance reports whether a metric-name part numbers an instance: a
// core or cache index, or a channel, rank or bank.
func isInstance(p string) bool {
	for _, prefix := range []string{"ch", "rk", "bank", ""} {
		if rest, ok := strings.CutPrefix(p, prefix); ok && rest != "" {
			if _, err := strconv.Atoi(rest); err == nil {
				return true
			}
		}
	}
	return false
}

// number converts a metric value as exported in-process or decoded from
// a document.
func number(v any) (float64, bool) {
	switch v := v.(type) {
	case uint64:
		return float64(v), true
	case int64:
		return float64(v), true
	case float64:
		return v, true
	case json.Number:
		f, err := v.Float64()
		return f, err == nil
	}
	return 0, false
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simLayerMetrics derives the simulated per-layer metrics. They come from
// telemetry alone, so they repeat exactly for a given seed.
func simLayerMetrics(c simCounters) map[string]float64 {
	stall := c["core.mem_stall_cycles"]
	m := map[string]float64{
		"cpu.instructions":             c["core.instructions"],
		"cpu.ipc":                      ratio(c["core.instructions"], c["core_cycles"]),
		"cpu.mem_stall_frac":           ratio(stall, c["core_cycles"]),
		"cache.l1_hit_ratio":           ratio(c["cache.l1.hits"], c["cache.l1.hits"]+c["cache.l1.misses"]),
		"cache.l2_hit_ratio":           ratio(c["cache.l2.hits"], c["cache.l2.hits"]+c["cache.l2.misses"]),
		"memsys.accesses":              c["memsys.accesses"],
		"memsys.prefetch_useful_ratio": ratio(c["memsys.prefetches_useful"], c["memsys.prefetches_issued"]),
		"memctrl.requests":             c["memctrl.reads_served"] + c["memctrl.writes_served"],
		"memctrl.row_hit_ratio": ratio(c["memctrl.row_hit_reads"]+c["memctrl.row_hit_writes"],
			c["memctrl.row_hit_reads"]+c["memctrl.row_hit_writes"]+c["memctrl.row_miss_reads"]+c["memctrl.row_miss_writes"]),
		"memctrl.queue_wait_per_read":  ratio(c["memctrl.read_queue_wait_cycles"], c["memctrl.reads_served"]),
		"memctrl.patterned_burst_frac": ratio(c["memctrl.patterned_reads"], c["memctrl.reads_served"]),
		"dram.commands":                c["dram.acts"] + c["dram.pres"] + c["dram.reads"] + c["dram.writes"] + c["dram.refreshes"],
		"dram.bus_util":                ratio(c["dram.bus_busy_cycles"], c["channel_cycles"]),
	}
	for _, s := range stallStages {
		m["stall."+s+"_share"] = ratio(c["core.stall."+s], stall)
	}
	return m
}

// cacheAccesses counts the L1 and L2 lookups, the cache layer's work.
func cacheAccesses(c simCounters) float64 {
	return c["cache.l1.hits"] + c["cache.l1.misses"] + c["cache.l2.hits"] + c["cache.l2.misses"]
}

// median returns the middle value (the mean of the middle two for an
// even count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method). It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld, n := len(s), 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}

// spread is the quartile distance as a share of the median: the
// run-to-run noise a bound is judged against. It is +Inf for fewer than
// two values, whose noise is unknown.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
