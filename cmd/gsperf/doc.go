// Command gsperf is the benchmark of the simulator's host cost: six named
// workloads, each measured end to end in fresh child processes and, in a
// separate traced run, per layer (per repo module). Every pass checks its
// outputs, so a faster but wrong simulator fails the benchmark.
//
// # Running it
//
// Build and run it from the repository root:
//
//	go build -o /tmp/gsperf ./cmd/gsperf && /tmp/gsperf -json out.json
//
// Its tests, a reduced-scale smoke run of every workload among them, run
// with the rest of the repository's: go test ./...
//
// The flags are
//
//	-seed N        workload seed (default 42); every input derives from it
//	-repeats N     passes per workload (default 3)
//	-seconds S     start passes until S seconds have passed, instead of -repeats
//	-workers N     worker goroutines (default: the number of CPUs)
//	-workloads L   comma-separated subset of the workloads
//	-trace DIR     add one traced pass per workload and report the per-layer metrics
//	-json FILE     write the results document that compare reads
//	-update        regenerate testdata/expected.json (see below)
//
// A default invocation runs the six workloads three times each, in about
// 170 seconds on two cores, about a sixth of it in the reference
// samplings (see Timing). Each repeat uses children of the same binary:
// three setup children, which time only the input constructors, and a
// pass child, which runs the workload the way gsbench does and renders
// its tables to io.Discard. For every workload gsperf prints each
// end-to-end metric with its unit, median, max and sample count. When one
// workload is selected, the last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics.
//
//	gsperf compare OLD.json NEW.json
//
// reports every (workload, end-to-end metric) pair as better, same, worse
// or unresolved and exits non-zero when one is worse. A metric is worse
// (better) when its median moved the wrong (right) way by more than the
// metric's bound, as a share of the old median; setup_s must also move by
// more than 0.02 s. It is unresolved when the quartile spread of either
// side exceeds that allowance, unless every new run beats every old run.
// Metrics with a zero bound are deterministic or must never rise, so
// their worst runs compare exactly: one more failed run is worse.
//
// bench.sh is the benchmark's entry point, and BENCHMARK.json at the
// repository root names its workloads and metrics:
//
//	bash cmd/gsperf/bench.sh --workload NAME --seed N --seconds S --trace 0|1
//
// It builds gsperf into .bench_build, keeps the Go build cache and all
// temporary files there, and runs the workload with -workers 1 for about
// S seconds: it starts another repeat only while that is likely to end
// within half a repeat of S. With --trace 1 it adds the traced pass and
// prints the per-layer metrics. One worker keeps the pass on one vCPU,
// where the reference (see Timing) measures the speed it runs at, and
// makes the peak RSS of a pass repeat to within a few percent.
//
// BENCHMARK.json lists two of the six workloads, the two whose cpu_s
// holds steadiest against the host, so that 22 runs of each fit in under
// an hour with several passes per run: suite, the wait of a user
// reproducing the paper, whose 21 experiments also time the detailed hot
// paths, and stress, which exercises rig construction and the golden
// model instead. The others stay in gsperf for local runs and compare.
// sampled is memory-bound and follows the reference less closely: ten
// 40-second runs spread by 10.5% and 5.9% in two sets. imdb-detailed's
// three long experiments give the reference only a few samplings per pass
// to follow the host by.
//
// # Workloads
//
// All workloads are closed-loop batches from one client, gsperf itself,
// so there is no arrival rate. At most -workers goroutines run simulation
// work: experiments run with Workers = -workers, the farm engine has
// -workers workers with one simulation worker per point, and stress runs
// on a pool of -workers goroutines. The L2 is 2 MB.
//
//	suite          every registered experiment in registry order at default scale
//	               (131072 tuples, 10000 txns, GEMM 32..256), as gsbench -exp all.
//	               The wait of a user reproducing the paper. It includes fig12
//	               re-running fig9 and fig10, and fig13 on fastsim.Model, so
//	               deduplicating experiments and a single timing model show here.
//	imdb-detailed  fig9 (262144 tuples, 20000 txns), fig10 and fig11 (262144
//	               tuples) on the detailed path. The 16 MB tables are 8x the L2,
//	               and the profile spreads over sim, memctrl, memsys, cache,
//	               gsdram and dram: where hot-path work must show.
//	indexed        hashjoin (1048576 tuples, 40000 probes), spmv (1048576 tuples)
//	               and ptrchase (262144 vertices, 40000 txns). gatherv/scatterv go
//	               through the coalescer as blocking gathers; memctrl and
//	               memsys.AccessV dominate and the inline fast path does little.
//	sampled        fig9 (1048576 tuples, 50000 txns) and fig10 (1048576 tuples)
//	               under interval sampling (interval 32768, warmup 512, measure
//	               1024). Functional fast-forward in imdb dominates, and sim and
//	               memctrl are nearly idle: the no-change prediction for queue and
//	               controller work. The 64 MB tables make setup_s and max_rss_mb
//	               matter.
//	farm           an in-process farm.Engine on a fresh result cache: 48
//	               telemetered points (fig9, hashjoin and spmv at 16 seeds derived
//	               from -seed; 16384 tuples, 1000 txns) cold, then the same sweep
//	               resubmitted 200 times warm, every document fetched as a sweep
//	               client does. The only workload with telemetry capture, spec
//	               hashing, documents and cache I/O in its timing; its 1 MB tables
//	               fit in the L2. A fingerprint or document change shows only here.
//	stress         golden-model differential of 3000 plain programs (half on the
//	               event-skipping path, half event-driven) and 1500 indexed
//	               programs, seeds derived from -seed. Thousands of tiny
//	               cache-resident rigs: rig construction (memsys.New, machine) and
//	               refmodel dominate, so heavier construction shows here.
//
// # End-to-end metrics
//
// Each is reported per workload as median, max and n over the passes. The
// bound is the largest worsening of the median that compare accepts.
//
//	name               unit       better  bound  workloads
//	wall_s             s          lower   25%    all
//	cpu_s              s          lower   25%    all
//	setup_s            s          lower   25%    all (and at least 0.02 s)
//	max_rss_mb         MB         lower   20%    all
//	sim_mcycles_per_s  Mcycles/s  higher  25%    imdb-detailed, indexed, sampled
//	programs_per_s     1/s        higher  25%    stress
//	cold_points_per_s  1/s        higher  25%    farm
//	warm_points_per_s  1/s        higher  25%    farm
//	sample_err_pct     %          lower   0      sampled, at a seed with a recorded truth
//	fail_frac          ratio      lower   0      all
//
// # Timing
//
// The benchmark's host is a two-vCPU virtual machine (Intel Xeon) shared
// with other tenants, and its speed drifts within seconds and by a third
// between busy and quiet minutes: the medians of 15-second runs of one
// workload over ten seeds spread by up to 18.5% (quartile distance over
// median), and by more while the host was busier. So every timed child
// normalises its times to a reference workload (calib.go), a miniature of
// the simulator's per-access work that no change to the simulator moves.
// The child samples the reference for 0.1 s before its work and, between
// operations at least a second apart, for a fifth of the time since the
// last sampling. It scales each stretch of work's wall time by refNS over
// the median reference wall time on either side of it, and its CPU time
// by refNS over the median reference CPU time. The timings are therefore
// seconds of a host that runs the reference in 2 ms, about this host's
// median. The results document keeps each pass's measured wall time
// (raw_wall_s) and its median reference wall time (ref_s).
//
// Ten 50-second runs of bench.sh on suite, at seeds 101 to 110 and again
// at 201 to 210, spread by 5.0% and 5.8% in cpu_s while their measured
// wall times spread by 11.2% and 20.2%; on stress, by 7.6% and 4.2%
// against 6.6% and 14.7%. max_rss_mb spread by at most 3.5%, and the
// medians of the two sets differed by at most 3.5% in cpu_s and 6.5% in
// setup_s. The timing bounds are 25% and max_rss_mb's 20%, three times
// the largest of these spreads or more, because runs while the host is
// busier spread further. setup_s also needs a 0.02 s move in compare, a
// floor for setups that take milliseconds. To resolve a change smaller
// than a bound, alternate ten or more runs of the two builds.
//
// wall_s is the pass child's wall time from its first call into the
// workload to its last, without the reference samplings, normalised. It
// includes the runners' own table build, which a gsbench user also pays.
// cpu_s is the pass child's user plus system CPU time over the same
// stretches, normalised by the reference's CPU time: the capacity cost on
// a shared machine. max_rss_mb is the pass child's peak resident set, which
// includes the reference's 16 MB. setup_s is the setup child's
// normalised time in the input constructors alone: machine.Default plus
// imdb.New for each (layout, size) a workload populates,
// stress.GenerateWith for all programs, and resultcache.Open, farm.New
// and Start.
//
// sim_mcycles_per_s is the sum of the simulated end cycles of all runs,
// from the typed results, divided by wall_s. programs_per_s counts the
// programs verified per second; cold_points_per_s and warm_points_per_s
// count executed and cache-hit farm points per second of their phase.
// sample_err_pct is the largest |sampled - detailed| / detailed cycles
// over the sampled runs, against the detailed truth in
// testdata/expected.json: accuracy against a more detailed model.
//
// BENCHMARK.json lists cpu_s, setup_s and max_rss_mb. It leaves out
// wall_s, which with one worker is cpu_s plus the time other tenants held
// the vCPU: in the suite runs above it spread by 8.2% and 6.0% after
// normalisation. The throughputs divide a fixed amount of work by a phase
// of wall_s, and fail_frac appears in the one-line result as the failed
// and attempted counts.
//
// # Failures
//
// An operation is one experiment run, one farm point, one warm hit or one
// stress program. It fails on an error or a panic, a result digest that
// differs from the committed one or from the first pass of the same run,
// a stress divergence, or a warm document that is not byte-identical to
// its cold document. fail_frac is failed over attempted operations. The
// digest is a SHA-256 over the JSON of Outcome.Result with every echoed
// Opts removed, because Opts carries Workers; it covers the simulated
// values bench-gate -tol 0 compares. A seed without committed digests
// reports "unchecked", and its passes are still checked against each
// other and by the simulator's own functional checks.
//
// testdata/expected.json holds the digests and the detailed truth for
// seed 42 and the held-out seed 1. Regenerate it with
//
//	/tmp/gsperf -update
//
// from the repository root, and only in a change whose purpose is to
// alter simulated results; a change that claims only speed must keep
// every digest.
//
// # Per-layer metrics
//
// A traced pass runs with telemetry capture on and asks for a CPU profile
// at 500 Hz (a kernel timer of coarser tick delivers fewer). It samples
// no reference, whose time would count as no layer's, so its times are as
// measured. gsperf decodes the profile itself and charges each sample to
// its innermost gsdram/internal frame; standard-library and runtime frames go
// to their nearest module caller, so container/heap counts as sim, and
// samples with no module frame go to runtime. The layers are sim, cpu,
// cache, memsys (with prefetch and autopatt), memctrl, dram, gsdram,
// machine (with vm and addrmap), imdb, gemm, graph, fastsim, sample (with
// ckpt), telemetry (with metrics, latency, flight and trace), bench (with
// spec, runner, energy and stats), farm (with resultcache), refmodel (with
// stress), other and runtime. Every traced run reports all of these
// metrics; a layer the workload does not use reads 0.
//
//	<layer>.host_share            share of the profile samples (the 19 sum to 1)
//	cpu.ns_per_instr              cpu share x traced cpu_s / simulated instructions
//	cache.ns_per_access           cache share x cpu_s / L1 and L2 lookups
//	memsys.ns_per_access          memsys share x cpu_s / memory-system accesses
//	memctrl.ns_per_request        memctrl share x cpu_s / DRAM requests served
//	dram.ns_per_command           dram share x cpu_s / DRAM commands
//	runtime.alloc_mb, runtime.gc_cycles, runtime.gc_cpu_frac
//	                              runtime/metrics of the untraced passes (median;
//	                              the GC share leaves out the reference's CPU time)
//	cpu.instructions, cpu.ipc, cpu.mem_stall_frac
//	stall.<stage>_share           share of stalled core cycles per latency stage
//	cache.l1_hit_ratio, cache.l2_hit_ratio
//	memsys.accesses, memsys.prefetch_useful_ratio
//	memctrl.requests, memctrl.row_hit_ratio, memctrl.queue_wait_per_read,
//	memctrl.patterned_burst_frac
//	dram.commands, dram.bus_util
//	sample.detail_frac            fraction of instructions sampled runs simulate in detail
//	farm.<span>_share             share of the cold points' lifecycle time in the
//	                              queued, cache_probe, running and store spans
//	resultcache.hit_ratio         cache hits over lookups in the farm passes
//	exp.<experiment>.wall_share   the experiment's share of the suite's experiment time
//	trace.overhead_frac           traced wall / untraced median raw_wall_s - 1
//
// The simulated counters (cpu.* to dram.* above, without the ns_per
// metrics) are sums over the captured runs and repeat exactly for a seed.
// Sampled and fastsim runs are not captured, and stress rigs have no
// telemetry, so those contribute nothing to them. The farm spans and the
// experiment times are reported as shares, which read 0 on the workloads
// they do not apply to. -trace also writes
// DIR/<workload>.pprof, DIR/layers.json and DIR/spans.json, a Perfetto
// trace of gsperf's own spans: setup, each spec.Run, the farm phases and
// the stress batches of every child.
//
// # Which end-to-end metric each layer moves
//
//   - sim.* moves wall_s and sim_mcycles_per_s on imdb-detailed and
//     indexed, and nothing on sampled.
//   - cpu.*, cache.* and memsys.* move wall_s on imdb-detailed and
//     sampled; memsys also indexed, and cache also suite through fig13.
//   - memctrl.* and dram.* move indexed and imdb-detailed, and nothing on
//     sampled.
//   - imdb.host_share moves sampled and imdb-detailed, and nothing on
//     stress.
//   - fastsim.host_share moves suite and sampled, and nothing on
//     imdb-detailed or indexed.
//   - telemetry.host_share moves cold_points_per_s on farm only, the one
//     workload whose timed passes capture telemetry.
//   - bench.host_share and exp.fig12.wall_share move suite wall_s.
//   - farm.* and resultcache.hit_ratio move warm_points_per_s and
//     cold_points_per_s on farm.
//   - refmodel.host_share and rig construction move programs_per_s on
//     stress.
//   - runtime.* moves cpu_s and max_rss_mb on every workload, most on farm
//     and suite.
//   - The simulated counters must not move at all under a performance or
//     simplicity change.
package main
