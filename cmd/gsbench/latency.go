package main

import (
	"flag"
	"fmt"
	"os"

	"gsdram/internal/latency"
	"gsdram/internal/spec"
	"gsdram/internal/stats"
	"gsdram/internal/telemetry"
)

// latencyCmd implements `gsbench latency [-exp fig9] [workload flags]`:
// run the selected experiment(s) with latency attribution enabled and
// print the request-lifecycle report for every telemetered run.
func latencyCmd(args []string) error {
	fs := flag.NewFlagSet("latency", flag.ContinueOnError)
	var ef expFlags
	ef.register(fs)
	exp := fs.String("exp", "fig9", "experiment to report on (or \"all\")")
	epoch := fs.Uint64("epoch", uint64(telemetry.DefaultEpoch), "telemetry sampling interval in CPU cycles")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gsbench latency [-exp fig9] [workload flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("latency: unexpected arguments %v", fs.Args())
	}

	exps := selected(*exp)
	if err := ef.check(exps...); err != nil {
		return err
	}
	for _, name := range exps {
		sp, err := ef.spec(name, true, *epoch)
		if err != nil {
			return err
		}
		out, err := spec.Run(sp)
		if err != nil {
			return err
		}
		for _, r := range out.Runs {
			printLatencyReport(name, r)
		}
	}
	return nil
}

// printLatencyReport renders one run's latency attribution: the
// per-class percentiles, the span decomposition, and the per-core stall
// attribution whose stage totals sum to the core's mem_stall_cycles.
func printLatencyReport(expName string, r *telemetry.Run) {
	rec := r.Latency
	if rec == nil || rec.Seen() == 0 {
		return
	}
	title := fmt.Sprintf("%s · %s", expName, r.Label)

	dist := stats.NewTable("latency · "+title,
		"class", "requests", "mean", "p50", "p95", "p99")
	spansT := stats.NewTable("spans · "+title,
		"class", "span", "cycles", "share", "mean", "p95")
	for _, gather := range []bool{false, true} {
		total, spans := rec.Class(gather)
		if total.Count() == 0 {
			continue
		}
		name := "p0"
		if gather {
			name = "gather"
		}
		dist.Addf(name, total.Count(), total.Mean(),
			total.Quantile(0.50), total.Quantile(0.95), total.Quantile(0.99))
		for si, h := range spans {
			if h.Sum() == 0 {
				continue
			}
			spansT.Addf(name, latency.Span(si).String(), h.Sum(),
				fmt.Sprintf("%.1f%%", 100*float64(h.Sum())/float64(total.Sum())),
				h.Mean(), h.Quantile(0.95))
		}
	}
	fmt.Println(dist)
	fmt.Println()
	fmt.Println(spansT)
	fmt.Println()

	stalls := stats.NewTable("core stalls · "+title,
		"core", "stage", "cycles", "share")
	for core := 0; core < rec.Cores(); core++ {
		var totalStall uint64
		for st := latency.Stage(0); st < latency.NumStages; st++ {
			totalStall += rec.StallCycles(core, st)
		}
		if totalStall == 0 {
			continue
		}
		for st := latency.Stage(0); st < latency.NumStages; st++ {
			v := rec.StallCycles(core, st)
			if v == 0 {
				continue
			}
			stalls.Addf(core, st.String(), v,
				fmt.Sprintf("%.1f%%", 100*float64(v)/float64(totalStall)))
		}
		stalls.Addf(core, "total", totalStall, "100.0%")
	}
	fmt.Println(stalls)
	fmt.Println()
}
