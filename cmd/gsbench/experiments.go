package main

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gsdram"
	"gsdram/internal/spec"
)

// expFlags holds the workload-scale knobs shared by the main run path
// and the latency and sample-validate subcommands, so all register
// identical flags and build identical ExperimentSpecs.
type expFlags struct {
	tuples    int
	txns      int
	gemmStr   string
	kvPairs   int
	gVerts    int
	gDeg      int
	seed      uint64
	workers   int
	noInline  bool
	l2Latency uint64

	sampleOn bool
	sample   spec.Sample
	// fs is the flag set the fields were registered on, kept so check
	// can tell which sampling flags were explicitly set.
	fs *flag.FlagSet
}

// register installs the workload flags on fs.
func (ef *expFlags) register(fs *flag.FlagSet) {
	ef.sample = *spec.DefaultSample()
	fs.IntVar(&ef.tuples, "tuples", gsdram.DefaultOptions().Tuples, "database table size in tuples (paper: 1048576)")
	fs.IntVar(&ef.txns, "txns", gsdram.DefaultOptions().Txns, "transactions per Figure 9 run (paper: 10000)")
	fs.StringVar(&ef.gemmStr, "gemm", "32,64,128,256", "comma-separated GEMM matrix sizes (paper: 32..1024)")
	fs.IntVar(&ef.kvPairs, "kvpairs", 4096, "key-value pairs for the kvstore experiment")
	fs.IntVar(&ef.gVerts, "vertices", 32768, "vertices for the graph experiment")
	fs.IntVar(&ef.gDeg, "degree", 8, "average out-degree for the graph experiment")
	fs.Uint64Var(&ef.seed, "seed", 42, "workload random seed")
	fs.IntVar(&ef.workers, "workers", 0, "concurrent simulation runs per experiment (0 = GOMAXPROCS, 1 = serial)")
	fs.BoolVar(&ef.noInline, "noinline", false, "disable the event-horizon fast path (pure event-driven execution; identical results)")
	fs.Uint64Var(&ef.l2Latency, "l2-latency", 0, "override the L2 hit latency in cycles (0 = model default; an ablation knob that changes results and hashes like a workload parameter)")
	fs.BoolVar(&ef.sampleOn, "sample", false, "estimate the sampling-capable experiments (fig9, fig10, pattbits) via interval sampling: functional fast-forward plus detailed windows with confidence intervals")
	fs.Uint64Var(&ef.sample.Interval, "sample-interval", ef.sample.Interval, "sampling interval in instructions (one detailed window per interval); larger workloads tolerate longer intervals (32768 holds at -tuples 1048576)")
	fs.Uint64Var(&ef.sample.Warmup, "sample-warmup", ef.sample.Warmup, "detailed warm-up instructions per window (excluded from the samples)")
	fs.Uint64Var(&ef.sample.Measure, "sample-measure", ef.sample.Measure, "measured instructions per window")
	fs.Uint64Var(&ef.sample.Seed, "sample-seed", ef.sample.Seed, "window-placement seed (independent of the workload -seed)")
	ef.fs = fs
}

// selected expands an -exp value into registry names.
func selected(exp string) []string {
	if exp == "all" {
		return spec.Names()
	}
	return []string{exp}
}

// spec builds the ExperimentSpec the flags describe for one registry
// experiment; telemetryOn and epoch mirror the output flags. The CLI
// and the farm construct identical rigs from identical specs, so this
// is the single translation point from flags to spec.
func (ef *expFlags) spec(name string, telemetryOn bool, epoch uint64) (*spec.Spec, error) {
	sizes, err := parseSizes(ef.gemmStr)
	if err != nil {
		return nil, err
	}
	sp := &spec.Spec{
		Experiment: name,
		Tuples:     ef.tuples,
		Txns:       ef.txns,
		GemmSizes:  sizes,
		KVPairs:    ef.kvPairs,
		Vertices:   ef.gVerts,
		Degree:     ef.gDeg,
		Seed:       ef.seed,
		Workers:    ef.workers,
		NoInline:   ef.noInline,
		L2Latency:  ef.l2Latency,
		Telemetry:  telemetryOn,
		Epoch:      epoch,
	}
	// fig9sampled is always sampled, consuming the sampling sub-flags
	// even without -sample (its registry entry falls back to the same
	// defaults the flags carry).
	if ef.sampleOn || name == "fig9sampled" {
		sc := ef.sample
		sp.Sample = &sc
	}
	return sp, nil
}

// check validates the flags for the selected experiments before any of
// them runs: every experiment's spec must pass spec.Validate, and the
// sampling sub-flags need -sample unless an always-sampled experiment
// (fig9sampled) consumes them.
func (ef *expFlags) check(exps ...string) error {
	if !ef.sampleOn && !slices.Contains(exps, "fig9sampled") {
		var set []string
		ef.fs.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "sample-") {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return fmt.Errorf("sampling flags (%s) only take effect with -sample", strings.Join(set, ", "))
		}
	}
	for _, name := range exps {
		sp, err := ef.spec(name, false, 0)
		if err != nil {
			return err
		}
		if err := sp.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// params renders the flags as manifest parameters.
func (ef *expFlags) params(exp string) map[string]string {
	return map[string]string{
		"exp":      exp,
		"tuples":   strconv.Itoa(ef.tuples),
		"txns":     strconv.Itoa(ef.txns),
		"gemm":     ef.gemmStr,
		"kvpairs":  strconv.Itoa(ef.kvPairs),
		"vertices": strconv.Itoa(ef.gVerts),
		"degree":   strconv.Itoa(ef.gDeg),
		"noinline": strconv.FormatBool(ef.noInline),
		"l2lat":    strconv.FormatUint(ef.l2Latency, 10),
		"sample":   strconv.FormatBool(ef.sampleOn),
	}
}
