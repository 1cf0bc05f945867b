package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of compare.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareCmd implements `gsperf compare OLD.json NEW.json`: a verdict for
// every (workload, end-to-end metric) pair present in both documents. It
// fails when any verdict is worse, which includes a higher fail_frac.
func compareCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("gsperf compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: gsperf compare OLD.json NEW.json")
	}
	var docs [2]*document
	for i, path := range fs.Args() {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		docs[i] = &document{}
		if err := json.Unmarshal(b, docs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	worse := compareDocs(w, docs[0], docs[1])
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse", worse)
	}
	return nil
}

// compareDocs prints the verdict table and returns the number of worse
// verdicts.
func compareDocs(w io.Writer, old, new *document) int {
	olds := map[string]*workloadResult{}
	for _, r := range old.Workloads {
		olds[r.Name] = r
	}
	worse := 0
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %8s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, nr := range new.Workloads {
		or := olds[nr.Name]
		if or == nil {
			fmt.Fprintf(w, "%-14s (not in the old document)\n", nr.Name)
			continue
		}
		for _, m := range endToEnd {
			o, n := or.Metrics[m.Name], nr.Metrics[m.Name]
			if o == nil || n == nil {
				continue
			}
			v := verdict(m, o.Samples, n.Samples)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-14s %-18s %12.6g %12.6g %+7.1f%% %7.1f%% %7.0f%%  %s\n",
				nr.Name, m.Name, o.Median, n.Median, 100*relChange(m, o.Samples, n.Samples),
				100*math.Max(spread(o.Samples), spread(n.Samples)), 100*m.boundAt(o.Median), v)
		}
	}
	return worse
}

// relChange is the change of the median as a share of the old median,
// signed so that positive is worse.
func relChange(m endMetric, old, new []float64) float64 {
	mo, mn := median(old), median(new)
	d := mn - mo
	if m.Better == "higher" {
		d = -d
	}
	if mo == 0 {
		switch {
		case d > 0:
			return math.Inf(1)
		case d < 0:
			return math.Inf(-1)
		}
		return 0
	}
	return d / math.Abs(mo)
}

// verdict applies the benchmark's rule to one metric: worse or better
// when the median moved by more than the bound (and by more than
// MinDelta), same otherwise; but
// unresolved when either side's quartile spread exceeds the bound,
// unless every new run beats every old run. Metrics with a zero bound
// are deterministic or must never rise, so their worst runs compare
// exactly.
func verdict(m endMetric, old, new []float64) string {
	if m.Bound == 0 {
		d := maxOf(new) - maxOf(old)
		if m.Better == "higher" {
			d = minOf(old) - minOf(new)
		}
		switch {
		case d > 0:
			return verdictWorse
		case d < 0:
			return verdictBetter
		}
		return verdictSame
	}
	change, bound := relChange(m, old, new), m.boundAt(median(old))
	if (spread(old) > bound || spread(new) > m.boundAt(median(new))) && !allBeat(m, new, old) {
		return verdictUnresolved
	}
	switch {
	case change > bound:
		return verdictWorse
	case change < -bound:
		return verdictBetter
	}
	return verdictSame
}

// boundAt is the metric's bound as a share of a median med: Bound, or
// MinDelta as a share of med where that is wider.
func (m endMetric) boundAt(med float64) float64 {
	if m.MinDelta > 0 && med != 0 {
		return math.Max(m.Bound, m.MinDelta/math.Abs(med))
	}
	return m.Bound
}

// allBeat reports whether every sample of a is better than every sample
// of b.
func allBeat(m endMetric, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if m.Better == "higher" {
		return minOf(a) > maxOf(b)
	}
	return maxOf(a) < minOf(b)
}
