package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gsdram"
	"gsdram/internal/farm"
	"gsdram/internal/resultcache"
	"gsdram/internal/spec"
	"gsdram/internal/telemetry"
)

// sweepFlags are the parsed `gsbench sweep` flags. The workload lists
// (-exp, -tuples, -txns, -seeds) expand to their cartesian product, one
// spec per point; the remaining knobs are shared by every point.
type sweepFlags struct {
	server   string
	cacheDir string
	workers  int // farm workers, in-process mode

	exps   []string
	tuples []int
	txns   []int
	seeds  []uint64

	gemm      []int
	kvPairs   int
	vertices  int
	degree    int
	runWorker int // per-point simulation workers
	noInline  bool
	telemetry bool
	epoch     uint64

	outDir     string
	jsonOut    string
	traceOut   string
	noProgress bool
	quiet      bool
}

// parseIntList parses a comma-separated list of positive ints.
func parseIntList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("sweep: bad %s value %q", flagName, part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: %s needs at least one value", flagName)
	}
	return out, nil
}

// parseU64List parses a comma-separated list of uint64s.
func parseU64List(flagName, s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad %s value %q", flagName, part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: %s needs at least one value", flagName)
	}
	return out, nil
}

// validateSweepStreams rejects the combination of the summary document
// on stdout (-json -) with NDJSON progress, which also streams to
// stdout: the two would interleave on one stream and neither would
// parse. Write the summary to a file, or pass -no-progress.
func validateSweepStreams(jsonOut string, progress bool) error {
	if jsonOut == "-" && progress {
		return fmt.Errorf("sweep: -json - and streaming progress both write to stdout and would interleave; write -json to a file or pass -no-progress")
	}
	return nil
}

// expandSweep builds one normalized, validated spec per point of the
// cartesian product exp × tuples × txns × seed, in that (deterministic)
// nesting order.
func (sf *sweepFlags) expandSweep() ([]spec.Spec, error) {
	var points []spec.Spec
	for _, exp := range sf.exps {
		for _, tuples := range sf.tuples {
			for _, txns := range sf.txns {
				for _, seed := range sf.seeds {
					s := spec.Spec{
						Experiment: exp,
						Tuples:     tuples,
						Txns:       txns,
						GemmSizes:  append([]int(nil), sf.gemm...),
						KVPairs:    sf.kvPairs,
						Vertices:   sf.vertices,
						Degree:     sf.degree,
						Seed:       seed,
						Workers:    sf.runWorker,
						NoInline:   sf.noInline,
						Telemetry:  sf.telemetry,
						Epoch:      sf.epoch,
					}
					ns := s.Normalized()
					if err := ns.Validate(); err != nil {
						return nil, fmt.Errorf("sweep: %w", err)
					}
					points = append(points, *ns)
				}
			}
		}
	}
	return points, nil
}

// sweepPointSummary is one point's final state in the -json summary.
type sweepPointSummary struct {
	Index  int              `json:"index"`
	Spec   spec.Spec        `json:"spec"`
	Hash   string           `json:"hash"`
	Status farm.PointStatus `json:"status"`
	Cached bool             `json:"cached"`
	WallNS int64            `json:"wall_ns"`
	Error  string           `json:"error,omitempty"`
}

// sweepSummary is the -json summary document of one sweep submission.
type sweepSummary struct {
	Server string              `json:"server,omitempty"`
	Job    string              `json:"job"`
	Totals farm.Totals         `json:"totals"`
	WallNS int64               `json:"wall_ns"` // client-observed submit → done
	Points []sweepPointSummary `json:"points"`
}

// sweepCmd implements `gsbench sweep`: expand the sweep points, submit
// them to a farm server (-server URL) or an in-process engine, stream
// per-point NDJSON progress to stdout, and optionally write the summary
// document (-json) and every point's run document (-out DIR). A warm
// resubmission of an identical sweep completes entirely from the result
// cache: zero simulation runs, byte-identical documents.
func sweepCmd(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var sf sweepFlags
	defOpts := gsdram.DefaultOptions()
	fs.StringVar(&sf.server, "server", "", "farm server base URL (e.g. http://127.0.0.1:8573); empty runs the sweep in-process")
	fs.StringVar(&sf.cacheDir, "cache-dir", "gsbench-cache", "result cache directory for in-process sweeps")
	fs.IntVar(&sf.workers, "farm-workers", 0, "concurrent sweep points for in-process sweeps (0 = GOMAXPROCS)")
	exps := fs.String("exp", "fig9", "comma-separated experiments to sweep")
	tuples := fs.String("tuples", strconv.Itoa(defOpts.Tuples), "comma-separated table sizes")
	txns := fs.String("txns", strconv.Itoa(defOpts.Txns), "comma-separated transaction counts")
	seeds := fs.String("seeds", "42", "comma-separated workload seeds")
	gemm := fs.String("gemm", "32,64,128,256", "comma-separated GEMM sizes (shared by all points)")
	fs.IntVar(&sf.kvPairs, "kvpairs", 4096, "key-value pairs (shared)")
	fs.IntVar(&sf.vertices, "vertices", 32768, "graph vertices (shared)")
	fs.IntVar(&sf.degree, "degree", 8, "graph average out-degree (shared)")
	fs.IntVar(&sf.runWorker, "workers", 0, "concurrent simulation runs within each point (0 = GOMAXPROCS)")
	fs.BoolVar(&sf.noInline, "noinline", false, "disable the event-horizon fast path in every point")
	fs.BoolVar(&sf.telemetry, "telemetry", true, "capture per-run telemetry in every point's document (telemetered points run concurrently, like any others)")
	fs.Uint64Var(&sf.epoch, "epoch", uint64(telemetry.DefaultEpoch), "telemetry sampling interval in CPU cycles")
	fs.StringVar(&sf.outDir, "out", "", "write every point's run document to DIR/<hash>.json")
	fs.StringVar(&sf.jsonOut, "json", "", "write the sweep summary document to FILE (\"-\" for stdout, only with -no-progress)")
	fs.StringVar(&sf.traceOut, "trace-out", "", "write the sweep's point-lifecycle spans as a Perfetto trace to FILE")
	fs.BoolVar(&sf.noProgress, "no-progress", false, "suppress the NDJSON progress stream on stdout")
	fs.BoolVar(&sf.quiet, "quiet", false, "suppress the live progress line on stderr")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: gsbench sweep [-server URL | -cache-dir DIR] [-exp LIST] [-tuples LIST] [-txns LIST] [-seeds LIST] [shared workload flags] [-out DIR] [-json FILE]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("sweep: unexpected arguments %v", fs.Args())
	}
	if err := validateSweepStreams(sf.jsonOut, !sf.noProgress); err != nil {
		return err
	}
	var err error
	if sf.exps = strings.Split(*exps, ","); len(sf.exps) == 0 {
		return fmt.Errorf("sweep: -exp needs at least one experiment")
	}
	for i := range sf.exps {
		sf.exps[i] = strings.TrimSpace(sf.exps[i])
	}
	if sf.tuples, err = parseIntList("-tuples", *tuples); err != nil {
		return err
	}
	if sf.txns, err = parseIntList("-txns", *txns); err != nil {
		return err
	}
	if sf.seeds, err = parseU64List("-seeds", *seeds); err != nil {
		return err
	}
	if sf.gemm, err = parseIntList("-gemm", *gemm); err != nil {
		return err
	}
	points, err := sf.expandSweep()
	if err != nil {
		return err
	}
	return runSweep(&sf, points)
}

// runSweep submits the points, streams progress, and writes outputs.
func runSweep(sf *sweepFlags, points []spec.Spec) error {
	ctx := context.Background()
	progress := json.NewEncoder(os.Stdout)
	final := make([]farm.Event, len(points))
	spans := make([][]farm.SpanRec, len(points))
	var totals farm.Totals
	var jobID string
	var start time.Time
	terminal := 0
	cachedN := 0
	// statusLine is the live stderr progress: completed count, cache-hit
	// rate, throughput, and an ETA extrapolated from the completed
	// points' wall times. Rewritten in place with \r; -quiet drops it.
	statusLine := func() {
		if sf.quiet || terminal == 0 {
			return
		}
		elapsed := time.Since(start).Seconds()
		rate := float64(terminal) / elapsed
		eta := "?"
		if rate > 0 {
			eta = fmt.Sprintf("%.1fs", float64(len(points)-terminal)/rate)
		}
		fmt.Fprintf(os.Stderr, "\rsweep %s: %d/%d done, %.0f%% cache hits, %.2f pts/s, ETA %s   ",
			jobID, terminal, len(points), 100*float64(cachedN)/float64(terminal), rate, eta)
	}
	onEvent := func(ev farm.Event) error {
		if !sf.noProgress {
			if err := progress.Encode(ev); err != nil {
				return err
			}
		}
		switch {
		case ev.Type == "done":
			if ev.Totals != nil {
				totals = *ev.Totals
			}
		case ev.Type == "span":
			if ev.Span != nil && ev.Index >= 0 && ev.Index < len(spans) {
				spans[ev.Index] = append(spans[ev.Index], *ev.Span)
			}
		case ev.Status == farm.PointDone || ev.Status == farm.PointFailed:
			if ev.Index >= 0 && ev.Index < len(final) {
				final[ev.Index] = ev
				terminal++
				if ev.Cached {
					cachedN++
				}
				statusLine()
			}
		}
		return nil
	}

	// The engine keys each point under its own fingerprint, so the point
	// hashes come from it, never from the specs submitted.
	hashes := make([]string, len(points))
	var fetch func(hash string) ([]byte, bool, error)
	start = time.Now()
	if sf.server != "" {
		client := farm.NewClient(sf.server)
		ack, err := client.Submit(ctx, points)
		if err != nil {
			return err
		}
		jobID = ack.ID
		for _, p := range ack.Points {
			if p.Index >= 0 && p.Index < len(hashes) {
				hashes[p.Index] = p.Hash
			}
		}
		if err := client.Stream(ctx, ack.ID, onEvent); err != nil {
			return err
		}
		fetch = func(hash string) ([]byte, bool, error) { return client.Result(ctx, hash) }
	} else {
		cache, err := resultcache.Open(sf.cacheDir)
		if err != nil {
			return err
		}
		engine := farm.New(cache, farm.Options{Workers: sf.workers})
		engine.Start()
		job, err := engine.Submit(points)
		if err != nil {
			return err
		}
		jobID = job.ID
		for i, p := range job.Points() {
			hashes[i] = p.Hash
		}
		seq := 0
		for {
			evs, ch, done := job.EventsSince(seq)
			for _, ev := range evs {
				if err := onEvent(ev); err != nil {
					return err
				}
			}
			seq += len(evs)
			if done {
				break
			}
			<-ch
		}
		if err := engine.Drain(ctx); err != nil {
			return err
		}
		fetch = cache.Get
	}
	wall := time.Since(start)
	if !sf.quiet && terminal > 0 {
		fmt.Fprintln(os.Stderr) // finish the \r progress line
	}

	summary := sweepSummary{
		Server: sf.server,
		Job:    jobID,
		Totals: totals,
		WallNS: wall.Nanoseconds(),
	}
	for i := range points {
		ps := sweepPointSummary{
			Index:  i,
			Spec:   points[i],
			Hash:   hashes[i],
			Status: final[i].Status,
			Cached: final[i].Cached,
			WallNS: final[i].WallNS,
			Error:  final[i].Error,
		}
		if ps.Status == "" {
			ps.Status = farm.PointPending
		}
		summary.Points = append(summary.Points, ps)
	}

	if sf.outDir != "" {
		if err := os.MkdirAll(sf.outDir, 0o755); err != nil {
			return err
		}
		for _, ps := range summary.Points {
			if ps.Status != farm.PointDone {
				continue
			}
			doc, ok, err := fetch(ps.Hash)
			if err != nil {
				return fmt.Errorf("sweep: fetching %s: %w", ps.Hash, err)
			}
			if !ok {
				return fmt.Errorf("sweep: completed point %d has no document for %s", ps.Index, ps.Hash)
			}
			if err := os.WriteFile(filepath.Join(sf.outDir, ps.Hash+".json"), doc, 0o644); err != nil {
				return err
			}
		}
	}

	if sf.traceOut != "" {
		tracks := make([]telemetry.SpanTrack, len(points))
		for i := range points {
			tracks[i] = telemetry.SpanTrack{
				Name: fmt.Sprintf("point%d %s seed%d", i, points[i].Experiment, points[i].Seed),
			}
			for _, sp := range spans[i] {
				tracks[i].Spans = append(tracks[i].Spans, telemetry.TrackSpan{
					Name:    sp.Name,
					StartUS: uint64(sp.StartNS / 1000),
					DurUS:   uint64(sp.DurNS / 1000),
				})
			}
		}
		f, err := os.Create(sf.traceOut)
		if err != nil {
			return err
		}
		if err := telemetry.WriteSpanTrace(f, "sweep "+jobID, tracks); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if sf.jsonOut != "" {
		out, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			return err
		}
		if sf.jsonOut == "-" {
			fmt.Println(string(out))
		} else if err := os.WriteFile(sf.jsonOut, append(out, '\n'), 0o644); err != nil {
			return err
		}
	}

	fmt.Fprintf(os.Stderr, "sweep %s: %d point(s) — %d executed, %d cached, %d failed in %.2fs\n",
		jobID, totals.Points, totals.Executed, totals.Cached, totals.Failed, wall.Seconds())
	if totals.Failed > 0 {
		return fmt.Errorf("sweep: %d point(s) failed", totals.Failed)
	}
	return nil
}
