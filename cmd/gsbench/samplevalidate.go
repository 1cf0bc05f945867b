package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"gsdram"
	"gsdram/internal/imdb"
	"gsdram/internal/stats"
)

// sampleValidateRow is one run's sampled-vs-detailed comparison.
type sampleValidateRow struct {
	Run            string  `json:"run"`
	DetailedCycles uint64  `json:"detailed_cycles"`
	SampledCycles  uint64  `json:"sampled_cycles"`
	ErrorPct       float64 `json:"error_pct"`
	CIPct          float64 `json:"ci_pct"`
	Windows        int     `json:"windows"`
	DetailFraction float64 `json:"detail_fraction"`
	WithinCI       bool    `json:"within_ci"`
}

// sampleValidateDoc is the machine-readable validation report.
type sampleValidateDoc struct {
	Interval       uint64              `json:"interval"`
	Warmup         uint64              `json:"warmup"`
	Measure        uint64              `json:"measure"`
	Runs           []sampleValidateRow `json:"runs"`
	MaxErrorPct    float64             `json:"max_error_pct"`
	SampledWallNS  int64               `json:"sampled_wall_ns"`
	DetailedWallNS int64               `json:"detailed_wall_ns"`
	Speedup        float64             `json:"speedup"`
	Pass           bool                `json:"pass"`
}

// sampleValidateCmd implements `gsbench sample-validate`: run Figure 9
// both sampled and fully cycle-accurate on the same configuration, and
// check that every run's observed error lies within the reported
// confidence interval and under -max-error, and that the sampled pass is
// at least -min-speedup times faster in wall-clock terms. An untimed
// warm-up run populates the shared rig templates first, so neither timed
// pass pays the one-time table-population cost — the comparison isolates
// simulation speed, which is what sampling accelerates.
func sampleValidateCmd(args []string) error {
	fs := flag.NewFlagSet("sample-validate", flag.ExitOnError)
	var ef expFlags
	ef.register(fs)
	minSpeedup := fs.Float64("min-speedup", 5, "fail unless the sampled run is at least this many times faster (0 disables)")
	maxErr := fs.Float64("max-error", 3, "fail when any run's |cycle error| exceeds this percent")
	jsonOut := fs.String("json", "", "write the validation document to FILE (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("sample-validate: unexpected arguments %v", fs.Args())
	}
	ef.sampleOn = true // the sampling flags are the point of this subcommand
	if err := ef.check("fig9"); err != nil {
		return err
	}
	sp, err := ef.spec("fig9", false, 0)
	if err != nil {
		return err
	}
	opts := sp.BenchOptions()

	// Untimed warm-up: populate the per-(layout, tuples) rig templates
	// that both passes clone, so the one-time functional population cost
	// lands outside both stopwatches.
	warmOpts := opts
	warmOpts.Sample = nil
	warmOpts.Txns = 1
	if _, err := gsdram.RunFig9(warmOpts); err != nil {
		return err
	}

	samOpts := opts
	start := time.Now()
	sam, err := gsdram.RunFig9(samOpts)
	if err != nil {
		return err
	}
	samWall := time.Since(start)

	detOpts := opts
	detOpts.Sample = nil
	start = time.Now()
	det, err := gsdram.RunFig9(detOpts)
	if err != nil {
		return err
	}
	detWall := time.Since(start)

	doc := sampleValidateDoc{
		Interval:       ef.sample.Interval,
		Warmup:         ef.sample.Warmup,
		Measure:        ef.sample.Measure,
		SampledWallNS:  samWall.Nanoseconds(),
		DetailedWallNS: detWall.Nanoseconds(),
		Speedup:        float64(detWall) / float64(samWall),
		Pass:           true,
	}
	t := stats.NewTable(
		fmt.Sprintf("sample-validate: fig9 sampled vs cycle-accurate, %d txns, %d tuples", opts.Txns, opts.Tuples),
		"run", "detailed (Mcyc)", "sampled (Mcyc)", "error %", "CI ±%", "windows", "detail %", "status")
	for _, l := range []imdb.Layout{imdb.RowStore, imdb.ColumnStore, imdb.GSStore} {
		for i, mix := range sam.Mixes {
			est := sam.Sampled[l][i]
			d := det.Runs[l][i].Cycles
			errPct := 100 * (float64(est.Cycles) - float64(d)) / float64(d)
			ciPct := est.RelCI() * 100
			row := sampleValidateRow{
				Run:            fmt.Sprintf("fig9/%v/%v", l, mix),
				DetailedCycles: d,
				SampledCycles:  est.Cycles,
				ErrorPct:       errPct,
				CIPct:          ciPct,
				Windows:        est.Windows,
				DetailFraction: est.SampledFraction(),
				WithinCI:       math.Abs(errPct) <= ciPct,
			}
			status := "ok"
			if !row.WithinCI {
				status = "OUTSIDE CI"
				doc.Pass = false
			}
			if math.Abs(errPct) > *maxErr {
				status = fmt.Sprintf("ERROR > %.1f%%", *maxErr)
				doc.Pass = false
			}
			if a := math.Abs(errPct); a > doc.MaxErrorPct {
				doc.MaxErrorPct = a
			}
			doc.Runs = append(doc.Runs, row)
			t.Add(row.Run, stats.Mcycles(d), stats.Mcycles(est.Cycles),
				fmt.Sprintf("%+.2f", errPct), fmt.Sprintf("%.2f", ciPct),
				fmt.Sprint(est.Windows), fmt.Sprintf("%.1f", row.DetailFraction*100), status)
		}
	}
	if *minSpeedup > 0 && doc.Speedup < *minSpeedup {
		doc.Pass = false
	}

	if *jsonOut != "-" {
		fmt.Println(t)
		fmt.Printf("wall clock: sampled %.2fs vs detailed %.2fs — %.1fx speedup (gate: >= %.1fx)\n",
			samWall.Seconds(), detWall.Seconds(), doc.Speedup, *minSpeedup)
	}
	if *jsonOut != "" {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if *jsonOut == "-" {
			fmt.Println(string(out))
		} else if err := os.WriteFile(*jsonOut, append(out, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !doc.Pass {
		return fmt.Errorf("sample-validate: FAILED (max |error| %.2f%%, speedup %.2fx)", doc.MaxErrorPct, doc.Speedup)
	}
	fmt.Printf("sample-validate: OK — max |error| %.2f%% within every CI, %.1fx speedup\n", doc.MaxErrorPct, doc.Speedup)
	return nil
}
