// Command gsbench runs the paper-reproduction experiments and prints the
// corresponding tables and figure series.
//
// Usage:
//
//	gsbench [-exp all|table1|fig7|fig9|fig9sampled|fig10|fig11|fig12|fig13|
//	         kvstore|graph|ablation|autogather|schedpol|channels|impulse|
//	         pattbits|storebuf|pixels|hashjoin|spmv|ptrchase]
//	        [-tuples N] [-txns N] [-gemm n1,n2,...] [-kvpairs N]
//	        [-vertices N] [-degree D] [-seed S] [-workers N] [-noinline]
//	        [-sample] [-sample-interval N] [-sample-warmup N]
//	        [-sample-measure N] [-sample-seed S]
//	        [-json FILE] [-trace-out FILE] [-prom-out FILE] [-epoch N]
//	        [-flight-out FILE] [-l2-latency N]
//	        [-cpuprofile FILE] [-memprofile FILE]
//	gsbench latency [-exp fig9] [workload flags]
//	gsbench sample-validate [-min-speedup X] [-max-error PCT] [-json FILE]
//	        [workload and sampling flags]
//	gsbench metrics-diff [-all] OLD.json NEW.json
//	gsbench bench-gate [-tol PCT] [-explain] OLD.json NEW.json
//	gsbench explain [-top N] [-json FILE] OLD.json NEW.json
//	gsbench stress [-seed S] [-count N] [-shrink] [-workers N] [-noinline]
//	        [-xmodes] [-indexed] [-pseed P] [-repro-out FILE]
//	gsbench serve [-addr HOST:PORT] [-cache-dir DIR] [-farm-workers N]
//	        [-flight-dir DIR] [-drain-timeout D]
//	        [-log-format text|json] [-pprof]
//	gsbench sweep [-server URL | -cache-dir DIR] [-exp LIST] [-tuples LIST]
//	        [-txns LIST] [-seeds LIST] [-out DIR] [-json FILE] [-trace-out FILE]
//	        [-no-progress] [-quiet] [workload flags]
//	gsbench top [-server URL] [-interval D] [-n N] [-once]
//
// gsbench latency runs an experiment with latency attribution enabled and
// prints the request-lifecycle report: per-pattern-class latency
// percentiles, the span decomposition of where request cycles went, and
// the per-core stall attribution ("where did the cycles go"), whose
// stage totals sum exactly to each core's mem_stall_cycles.
//
// With -sample, the sampling-capable experiments (fig9, fig10, pattbits)
// are estimated by interval sampling (DESIGN.md §5.7): long functional
// fast-forwards that keep caches, predictors and DRAM state warm,
// punctuated by short detailed windows whose per-instruction cycle
// samples yield a mean and a 95% confidence interval (the intervals are
// in the -json document; the tables print the estimates). -sample-interval
// / -sample-warmup / -sample-measure size the windows and -sample-seed
// places them. The fig9sampled experiment always runs sampled and
// prints every estimate with its confidence interval.
//
// gsbench sample-validate is the accuracy-and-speedup gate: it runs
// fig9 both sampled and cycle-accurate at the configured scale, checks
// every sampled CPI against the detailed truth (each |error| must stay
// within -max-error percent and inside the sampled 95% CI) and the
// wall-clock speedup against -min-speedup, exiting nonzero on any miss.
// CI runs it at the paper's scale:
//
//	gsbench sample-validate -tuples 1048576 -sample-interval 32768
//
// gsbench metrics-diff compares the telemetry metrics of two -json
// documents run by run; histograms expand to .count/.mean/.p50/.p99 rows.
//
// gsbench bench-gate compares NEW.json against a committed baseline
// (BENCH_seed.json) and exits nonzero when a run's end cycle or a core's
// busy cycles rise by more than -tol percent (default 5). It gates
// simulated results only; host cost is gsperf compare's job. With
// -explain, a failing gate also prints the explain diagnosis of the
// pair before exiting.
//
// gsbench explain is the differential root-cause analyzer (DESIGN.md
// §5.11): given two -json documents it decomposes every matched run's
// end-to-end cycle delta into per-stage contributions that sum exactly
// to the delta (from the per-core stall attribution), ranks the top
// causes, and corroborates them with per-bank and per-channel latency
// shifts, pattern-class shifts, the row-hit/row-miss mix, and the epoch
// window where the two time-series start to diverge. -json writes the
// machine-readable verdict ("-" = stdout).
//
// With -flight-out FILE, every run's flight recorder — the bounded,
// deterministic tail of recent microarchitectural events per component
// in the rig's event log (DDR commands, cache fills/writebacks,
// coherence actions, coalescer burst decisions, MSHR traffic, core
// memory ops) — is dumped to FILE as NDJSON after the experiments
// complete, keeping the last 256 events per component. Recording is
// observation-only: results are bit-identical with and without it.
//
// -l2-latency N overrides the L2 hit latency in cycles (0 = the model
// default). It is an ablation knob: unlike telemetry it changes
// simulated results, so it participates in spec hashing and is recorded
// in the run manifest.
//
// gsbench stress runs seeded random programs through both the cycle
// simulator and a timing-free golden reference model
// (internal/refmodel) and diff-checks every loaded value, the final
// memory image, and cache state. A failing program is shrunk to a
// minimal reproducer; replay one with -pseed using the seed printed in
// the failure report. -noinline verifies the pure event-driven path
// instead of the event-skipping one; -xmodes verifies every program on
// all three execution paths (event-skipping, event-driven and the
// functional fast-forward that interval sampling relies on). -indexed
// additionally generates indexed gatherv/scatterv ops (explicit index
// vectors through the coalescer). The oracle's self-test is the mutant
// catalogue in internal/mutants, which builds gsbench with known bugs
// planted in the simulator's source.
//
// The hashjoin, spmv and ptrchase experiments exercise the indexed
// gather/scatter path (DESIGN.md §5.10): each compares a scalar
// per-element fallback, gatherv on a flat layout, and gatherv on a
// shuffled (GS) layout, reporting the speedup and the patterned/
// fallback burst mix.
//
// gsbench serve runs the simulation farm (DESIGN.md §5.8): an HTTP/JSON
// job server that shards sweep points across a worker pool and stores
// every run document in a content-addressed result cache keyed by the
// canonical experiment-spec hash. Identical points are never simulated
// twice — not within a sweep, not across sweeps, and not across servers
// sharing one -cache-dir. gsbench sweep expands a cartesian sweep
// (experiments × tuples × txns × seeds), submits it to a server (or runs
// it in-process against a local cache), streams NDJSON progress with a
// live completion/ETA line on stderr (-quiet suppresses it), and
// collects the per-point documents; -trace-out renders the sweep's
// point-lifecycle spans (queued, cache probe, singleflight wait,
// running, store) as a Perfetto trace. The server observes itself:
// GET /metrics exposes Prometheus counters and latency histograms,
// -pprof mounts net/http/pprof, and gsbench top renders a live fleet
// view (queue, in-flight points, cache-hit rate, points/sec, latency
// percentiles, per-job progress) by polling the server.
//
// The defaults complete in a few minutes. To run at the paper's scale:
//
//	gsbench -exp fig9 -tuples 1048576 -txns 10000
//	gsbench -exp fig13 -gemm 32,64,128,256,512,1024
//
// With -json FILE, a machine-readable document — a run manifest (params,
// seed, workers, go version) plus a record per experiment with name,
// wall-clock nanoseconds, a cycles/speedups summary where the experiment
// has one, the full structured result, and per-run telemetry (final
// metrics, the epoch time-series, and the latency attribution summary) —
// is written to FILE ("-" replaces the text tables on stdout), so perf
// trajectories can be tracked as BENCH_*.json artifacts and compared
// with `gsbench metrics-diff` / gated with `gsbench bench-gate`.
//
// With -trace-out FILE, a Chrome trace_event JSON covering every
// telemetered run — DRAM commands per bank lane, core busy/stall
// phases, epoch counter tracks, and flow arrows from each stalled core
// to the DRAM read that unblocked it — is written to FILE; open it at
// https://ui.perfetto.dev (timestamps are simulated CPU cycles, not
// microseconds). -epoch N sets the sampling interval in cycles.
//
// With -prom-out FILE, the final metrics of every telemetered run are
// written in Prometheus text exposition format, labelled by experiment
// and run, for scraping into dashboards.
//
// Telemetry capture is enabled automatically when -json, -trace-out or
// -prom-out is given; it observes without mutating, so results are
// bit-identical with and without it.
//
// -noinline disables the cores' event-horizon fast path and takes the pure
// event-driven execution path; results are bit-identical, only slower — the
// flag exists as an escape hatch and for equivalence checking.
//
// -workers bounds how many independent simulation runs execute
// concurrently within each experiment (0 = one per CPU). Every worker
// count produces identical results; -workers 1 forces the historical
// serial order. -cpuprofile / -memprofile write pprof profiles of the
// whole invocation for performance work on the simulator itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"gsdram/internal/flight"
	"gsdram/internal/metrics"
	"gsdram/internal/spec"
	"gsdram/internal/telemetry"
)

func main() {
	subcommands := map[string]func([]string) error{
		"metrics-diff":    metricsDiff,
		"bench-gate":      func(args []string) error { return benchGate(args, os.Stdout) },
		"explain":         func(args []string) error { return explainCmd(args, os.Stdout) },
		"latency":         latencyCmd,
		"stress":          stressCmd,
		"sample-validate": sampleValidateCmd,
		"serve":           serveCmd,
		"sweep":           sweepCmd,
		"top":             topCmd,
	}
	names := make([]string, 0, len(subcommands))
	for name := range subcommands {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(os.Args) > 1 {
		if cmd, ok := subcommands[os.Args[1]]; ok {
			if err := cmd(os.Args[2:]); err != nil {
				fatal(err)
			}
			return
		}
		if !strings.HasPrefix(os.Args[1], "-") {
			fatal(fmt.Errorf("unknown subcommand %q (valid: %s)", os.Args[1], strings.Join(names, ", ")))
		}
	}
	var ef expFlags
	ef.register(flag.CommandLine)
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "Usage: %s [flags]\n", os.Args[0])
		fmt.Fprintf(w, "       %s SUBCOMMAND [args]   (subcommands: %s)\n", os.Args[0], strings.Join(names, ", "))
		flag.PrintDefaults()
	}
	var (
		exp       = flag.String("exp", "all", "experiment to run (or \"all\"); see the registry in -h")
		jsonOut   = flag.String("json", "", "write the JSON document (manifest, per-experiment records, telemetry) to FILE; \"-\" replaces the text tables on stdout")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace_event / Perfetto JSON of all telemetered runs to FILE")
		promOut   = flag.String("prom-out", "", "write the final metrics of all telemetered runs in Prometheus text format to FILE")
		epoch     = flag.Uint64("epoch", uint64(telemetry.DefaultEpoch), "telemetry sampling interval in CPU cycles")
		flightOut = flag.String("flight-out", "", "dump every run's flight-recorder tails (recent microarchitectural events) to FILE as NDJSON")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // materialise the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	telemetryOn := *jsonOut != "" || *traceOut != "" || *promOut != "" || *flightOut != ""
	run := spec.Run
	if *flightOut != "" {
		run = spec.RunFlight
	}

	// Every selected experiment's spec is validated before any runs.
	exps := selected(*exp)
	if err := ef.check(exps...); err != nil {
		fatal(err)
	}

	jsonToStdout := *jsonOut == "-"
	var records []spec.Record
	var traceRuns []*telemetry.Run
	var promRegs []metrics.LabeledRegistry
	var flightRecs []flight.LabeledRecorder
	for _, name := range exps {
		sp, err := ef.spec(name, telemetryOn, *epoch)
		if err != nil {
			fatal(err)
		}
		out, err := run(sp)
		if err != nil {
			fatal(err)
		}
		// Keep a run's capture only for an export that asks for it: each
		// one holds its whole rig alive until the batch is written out.
		if *traceOut != "" {
			traceRuns = append(traceRuns, out.Runs...)
		}
		for _, fr := range out.Flight {
			// Prefix the run label with the experiment so logs from
			// different experiments stay distinguishable in one dump.
			flightRecs = append(flightRecs, flight.LabeledRecorder{
				Label: name + "/" + fr.Label, Rec: fr.Rec,
			})
		}
		if *promOut != "" {
			for _, r := range out.Runs {
				promRegs = append(promRegs, metrics.LabeledRegistry{
					Labels: map[string]string{"experiment": name, "run": r.Label},
					Reg:    r.Registry,
				})
			}
		}
		if *jsonOut != "" {
			records = append(records, out.Record())
		}
		if !jsonToStdout {
			for _, t := range out.Tables {
				fmt.Println(t)
			}
		}
	}

	manifest := telemetry.Manifest{
		Tool:      "gsbench",
		GoVersion: runtime.Version(),
		Seed:      ef.seed,
		Workers:   ef.workers,
		Epoch:     *epoch,
		Params:    ef.params(*exp),
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := telemetry.WriteTrace(f, manifest, traceRuns); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *flightOut != "" {
		f, err := os.Create(*flightOut)
		if err != nil {
			fatal(err)
		}
		if err := flight.WriteNDJSON(f, flightRecs, nil); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *promOut != "" {
		f, err := os.Create(*promOut)
		if err != nil {
			fatal(err)
		}
		if err := metrics.WritePrometheusMulti(f, promRegs); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *jsonOut != "" {
		doc := spec.Document{Manifest: manifest, Experiments: records}
		out, err := doc.Marshal()
		if err != nil {
			fatal(err)
		}
		if jsonToStdout {
			fmt.Print(string(out))
		} else if err := os.WriteFile(*jsonOut, out, 0o644); err != nil {
			fatal(err)
		}
	}
}

func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad GEMM size %q", part)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no GEMM sizes given")
	}
	return sizes, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gsbench:", err)
	os.Exit(1)
}
