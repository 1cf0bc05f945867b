package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"gsdram/internal/flight"
	"gsdram/internal/runner"
	"gsdram/internal/stress"
)

// stressCmd implements `gsbench stress`: seeded differential verification
// of the cycle simulator against the architectural golden model
// (internal/refmodel), with ddmin shrinking of any failing program.
func stressCmd(args []string) error { return stressWith(args, stress.Run) }

// cycleRun is a cycle-level differential run of one program, as
// stress.Run.
type cycleRun func(stress.Program, stress.Options) (*stress.Result, error)

// stressWith runs `gsbench stress` with cycle as every cycle-level run:
// the programs', the shrinker's and the flight re-run's. Split from
// stressCmd for testing.
func stressWith(args []string, cycle cycleRun) error {
	fs := flag.NewFlagSet("stress", flag.ExitOnError)
	var (
		seed     = fs.Uint64("seed", 1, "base seed; program i uses a seed derived from (base, i)")
		pseed    = fs.Uint64("pseed", 0, "run exactly one program with this exact program seed (as printed in a failure report); overrides -seed/-count")
		count    = fs.Int("count", 200, "number of random programs to run")
		doShrink = fs.Bool("shrink", true, "shrink the first failing program to a minimal reproducer")
		workers  = fs.Int("workers", 0, "concurrent differential runs (0 = GOMAXPROCS, 1 = serial)")
		noInline = fs.Bool("noinline", false, "verify the pure event-driven path instead of the event-skipping one")
		xmodes   = fs.Bool("xmodes", false, "verify every program on all three execution paths: event-skipping, event-driven and functional (overrides -noinline)")
		indexed  = fs.Bool("indexed", false, "generate programs with gatherv/scatterv ops (indexed access path)")
		reproOut = fs.String("repro-out", "", "write the (shrunk) failing program to FILE")
		verbose  = fs.Bool("v", false, "print one line per program")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *count <= 0 {
		return fmt.Errorf("stress: -count must be positive")
	}
	// A path is the cycle-level run with opts, or the functional
	// fast-forward stress.RunFunctional.
	type path struct {
		opts       stress.Options
		functional bool
	}
	paths := []path{{opts: stress.Options{NoInline: *noInline}}}
	if *xmodes {
		paths = []path{{}, {opts: stress.Options{NoInline: true}}, {functional: true}}
	}
	run := func(p stress.Program, pa path) (*stress.Result, error) {
		if pa.functional {
			res, _, err := stress.RunFunctional(p)
			return res, err
		}
		return cycle(p, pa.opts)
	}
	gcfg := stress.GenConfig{Indexed: *indexed}

	// A failure is a program whose run errored (div nil) or diverged.
	type failure struct {
		seed uint64
		path path
		div  *stress.Divergence
	}
	seeds := runner.Seeds(*seed, *count)
	pseedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "pseed" {
			pseedSet = true
		}
	})
	if pseedSet {
		seeds = []uint64{*pseed}
		*count = 1
	}
	fails := make([]*failure, *count)
	var mu sync.Mutex
	totalOps := 0
	pool := runner.Pool{Workers: *workers}
	err := pool.Run(*count, func(i int) error {
		p := stress.GenerateWith(seeds[i], gcfg)
		mu.Lock()
		totalOps += len(p.Ops)
		mu.Unlock()
		for _, pa := range paths {
			res, err := run(p, pa)
			if err != nil {
				fails[i] = &failure{seed: seeds[i], path: pa}
				return fmt.Errorf("program %d (seed %d): %w", i, seeds[i], err)
			}
			if res.Div != nil {
				fails[i] = &failure{seed: seeds[i], path: pa, div: res.Div}
				return fmt.Errorf("program %d (seed %d) diverged: %s", i, seeds[i], res.Div)
			}
		}
		if *verbose {
			mu.Lock()
			fmt.Printf("program %4d seed %-20d %3d ops  ok\n", i, seeds[i], len(p.Ops))
			mu.Unlock()
		}
		return nil
	})
	if err == nil {
		modeNames := "event-skipping"
		if *xmodes {
			modeNames = "event-skipping + event-driven + functional"
		} else if *noInline {
			modeNames = "event-driven"
		}
		fmt.Printf("stress: %d programs (%d accesses) verified against the golden model [%s], zero divergences\n",
			*count, totalOps, modeNames)
		return nil
	}

	// Report the lowest-indexed failure, which is the pool's error: every
	// program before it ran and passed at any worker count, so it is the
	// same on every run. How many later programs also failed before the
	// workers stopped is not, so it is not reported. Shrink it if it
	// diverged.
	var f *failure
	for _, cand := range fails {
		if cand != nil {
			f = cand
			break
		}
	}
	if f == nil || f.div == nil {
		return err // a Run() error, not a divergence
	}
	fmt.Printf("stress: divergence on seed %d: %s\n", f.seed, f.div)
	p := stress.GenerateWith(f.seed, gcfg)
	div := f.div
	if *doShrink {
		// As in stress.Checker, a malformed candidate counts as passing.
		p, div = stress.Shrink(p, func(c stress.Program) *stress.Divergence {
			if res, err := run(c, f.path); err == nil {
				return res.Div
			}
			return nil
		})
		fmt.Printf("stress: shrunk to %d ops / %d region(s) / %d core(s)\n", len(p.Ops), len(p.Regions), p.Cores)
	}
	report := stress.ShrinkReport(p, div)
	fmt.Println(report)
	mode := ""
	if f.path.functional {
		mode = " -xmodes"
	} else if f.path.opts.NoInline {
		mode = " -noinline"
	}
	if *indexed {
		mode += " -indexed"
	}
	fmt.Printf("reproduce with: gsbench stress -pseed %d%s\n", f.seed, mode)
	if *reproOut != "" {
		if werr := os.WriteFile(*reproOut, []byte(report+"\n"), 0o644); werr != nil {
			return fmt.Errorf("writing -repro-out: %w", werr)
		}
		fmt.Printf("reproducer written to %s\n", *reproOut)
		// Flight-record a re-run of the shrunk program next to the
		// reproducer, with events touching the diverging line marked.
		// The functional path keeps no event log.
		flightPath := *reproOut + ".flight.ndjson"
		if f.path.functional {
			fmt.Println("no flight dump: the functional path records no events")
		} else if werr := writeStressFlight(p, f.path.opts, cycle, flightPath); werr != nil {
			fmt.Printf("flight dump failed: %v\n", werr)
		} else {
			fmt.Printf("flight dump written to %s\n", flightPath)
		}
	}
	return fmt.Errorf("stress: %w", err)
}

// writeStressFlight re-runs a (shrunk) diverging program with the flight
// recorder armed and dumps the rings to path. Events touching the cache
// line of the diverging access are marked ("mark": true) so the history
// leading up to the mismatch is easy to pick out of the dump. The
// re-run is deterministic, so the recorded events are exactly those of
// the failing run.
func writeStressFlight(p stress.Program, opts stress.Options, cycle cycleRun, path string) error {
	rec := flight.New(0, 0, 0, flight.DefaultDepth)
	opts.Flight = rec
	res, err := cycle(p, opts)
	if err != nil {
		return err
	}
	var mark func(flight.Event) bool
	if res.Div != nil && res.Div.Op >= 0 && res.Div.Op < len(res.Records) {
		lineMask := ^uint64(p.Spec.LineBytes - 1)
		line := uint64(res.Records[res.Div.Op].Addr) & lineMask
		mark = func(e flight.Event) bool {
			return e.Addr != 0 && e.Addr&lineMask == line
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := flight.WriteNDJSON(f, []flight.LabeledRecorder{{Label: "stress", Rec: rec}}, mark)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
