package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	"gsdram/internal/spec"
	"gsdram/internal/stats"
	"gsdram/internal/telemetry"
)

// diffFile is the subset of the gsbench -json document the differential
// subcommands (metrics-diff, bench-gate, explain) consume.
type diffFile struct {
	Manifest struct {
		GoVersion string            `json:"go_version"`
		Seed      uint64            `json:"seed"`
		Workers   int               `json:"workers"`
		Params    map[string]string `json:"params"`
	} `json:"manifest"`
	Experiments []diffExperiment `json:"experiments"`
}

type diffExperiment struct {
	Experiment string          `json:"experiment"`
	WallNS     int64           `json:"wall_ns"`
	Telemetry  []diffTelemetry `json:"telemetry"`
}

type diffTelemetry struct {
	Label    string                     `json:"label"`
	EndCycle uint64                     `json:"end_cycle"`
	Metrics  map[string]json.RawMessage `json:"metrics"`
	Series   *telemetry.Series          `json:"series"`
	Latency  *spec.LatencySummary       `json:"latency"`
}

// metricsDiff implements `gsbench metrics-diff [-all] OLD.json NEW.json`:
// it compares the telemetry metrics of two -json documents run by run
// and prints the metrics whose values differ (or all of them with -all).
func metricsDiff(args []string) error {
	fs := flag.NewFlagSet("metrics-diff", flag.ContinueOnError)
	all := fs.Bool("all", false, "print unchanged metrics too")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gsbench metrics-diff [-all] OLD.json NEW.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("metrics-diff: want exactly 2 files, got %d", fs.NArg())
	}
	a, err := loadDiffFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadDiffFile(fs.Arg(1))
	if err != nil {
		return err
	}
	return metricsDiffFiles(os.Stdout, fs.Arg(0), fs.Arg(1), a, b, *all)
}

// metricsDiffFiles runs the comparison of two loaded documents named
// oldPath and newPath; split from metricsDiff for testing.
func metricsDiffFiles(w io.Writer, oldPath, newPath string, a, b *diffFile, all bool) error {
	// Index runs by (experiment, label) → flattened metrics.
	type runKey struct{ exp, label string }
	index := func(f *diffFile) (map[runKey]map[string]float64, []runKey) {
		m := map[runKey]map[string]float64{}
		var order []runKey
		for _, e := range f.Experiments {
			for _, t := range e.Telemetry {
				k := runKey{e.Experiment, t.Label}
				m[k] = flattenMetrics(t.Metrics)
				order = append(order, k)
			}
		}
		return m, order
	}
	am, aOrder := index(a)
	bm, _ := index(b)

	if len(am) == 0 {
		return fmt.Errorf("metrics-diff: %s has no telemetry (was it produced with -json by this version?)", oldPath)
	}

	diffed := 0
	for _, k := range aOrder {
		bmet, ok := bm[k]
		if !ok {
			fmt.Fprintf(w, "%s · %s: only in %s\n\n", k.exp, k.label, oldPath)
			continue
		}
		amet := am[k]
		// Union of both documents' metric names: a counter present in
		// only one side is a schema change worth seeing, not a zero.
		names := make([]string, 0, len(amet))
		for n := range amet {
			names = append(names, n)
		}
		for n := range bmet {
			if _, ok := amet[n]; !ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		t := stats.NewTable(fmt.Sprintf("%s · %s", k.exp, k.label),
			"metric", "old", "new", "delta", "ratio")
		rows := 0
		for _, n := range names {
			av, aok := amet[n]
			bv, bok := bmet[n]
			switch {
			case !aok:
				t.Add(n, "(new)", trimFloat(bv), trimFloat(bv), "-")
				rows++
				continue
			case !bok:
				t.Add(n, trimFloat(av), "(gone)", trimFloat(-av), "-")
				rows++
				continue
			}
			if av == bv && !all {
				continue
			}
			ratio := "-"
			if av != 0 {
				ratio = fmt.Sprintf("%.4f", bv/av)
			}
			t.Add(n, trimFloat(av), trimFloat(bv), trimFloat(bv-av), ratio)
			rows++
		}
		if rows > 0 {
			fmt.Fprintln(w, t)
			fmt.Fprintln(w)
			diffed += rows
		}
	}
	for k := range bm {
		if _, ok := am[k]; !ok {
			fmt.Fprintf(w, "%s · %s: only in %s\n\n", k.exp, k.label, newPath)
		}
	}
	if diffed == 0 {
		fmt.Fprintln(w, "metrics-diff: no differing metrics")
	}
	return nil
}

func loadDiffFile(path string) (*diffFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeDiffFile(path, blob)
}

// decodeDiffFile decodes a run document read from path. Every analysis
// pairs runs by (experiment, label), so a document that repeats one is
// an error.
func decodeDiffFile(path string, blob []byte) (*diffFile, error) {
	var f diffFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[[2]string]bool{}
	for _, e := range f.Experiments {
		for _, t := range e.Telemetry {
			k := [2]string{e.Experiment, t.Label}
			if seen[k] {
				return nil, fmt.Errorf("%s: run %s · %s appears twice", path, e.Experiment, t.Label)
			}
			seen[k] = true
		}
	}
	return &f, nil
}

// flattenMetrics turns the exported metrics map into name → float64:
// scalar metrics pass through; histograms expand to
// .count/.sum/.mean/.p50/.p99 (percentiles recomputed from the exported
// power-of-2 buckets, matching metrics.Histogram.Quantile). A name the
// document holds itself is never overwritten by an expansion, so the
// result does not depend on map order.
func flattenMetrics(raw map[string]json.RawMessage) map[string]float64 {
	out := make(map[string]float64, len(raw))
	for name, blob := range raw {
		var v float64
		if err := json.Unmarshal(blob, &v); err == nil {
			out[name] = v
			continue
		}
		var h struct {
			Count   float64           `json:"count"`
			Sum     float64           `json:"sum"`
			Mean    float64           `json:"mean"`
			Buckets map[string]uint64 `json:"buckets"`
		}
		if err := json.Unmarshal(blob, &h); err != nil {
			continue
		}
		expand := func(suffix string, v float64) {
			if _, named := raw[name+suffix]; !named {
				out[name+suffix] = v
			}
		}
		expand(".count", h.Count)
		expand(".sum", h.Sum)
		expand(".mean", h.Mean)
		if len(h.Buckets) > 0 {
			expand(".p50", bucketQuantile(h.Buckets, 0.50))
			expand(".p99", bucketQuantile(h.Buckets, 0.99))
		}
	}
	return out
}

// bucketQuantile recomputes a quantile upper bound from exported
// histogram buckets (lower bound string → count). Bucket i holds values
// in [2^(i-1), 2^i), so the inclusive upper bound of the bucket with
// lower bound L is 2L-1 (and 0 for the zero bucket) — the same answer
// metrics.Histogram.Quantile gives on the live histogram.
func bucketQuantile(buckets map[string]uint64, q float64) float64 {
	type bucket struct {
		low   uint64
		count uint64
	}
	var bs []bucket
	var n uint64
	for lowStr, c := range buckets {
		low, err := strconv.ParseUint(lowStr, 10, 64)
		if err != nil || c == 0 {
			continue
		}
		bs = append(bs, bucket{low, c})
		n += c
	}
	if n == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].low < bs[j].low })
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for _, b := range bs {
		seen += b.count
		if seen >= rank {
			if b.low == 0 {
				return 0
			}
			return float64(2*b.low - 1)
		}
	}
	b := bs[len(bs)-1]
	if b.low == 0 {
		return 0
	}
	return float64(2*b.low - 1)
}

// trimFloat renders v without a trailing ".000000" for integral values.
func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}
