package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"gsdram/internal/bench"
	"gsdram/internal/farm"
	"gsdram/internal/imdb"
	"gsdram/internal/machine"
	"gsdram/internal/resultcache"
	"gsdram/internal/runner"
	"gsdram/internal/spec"
	"gsdram/internal/stress"
	"gsdram/internal/telemetry"
)

// config is what every child receives from the parent.
type config struct {
	seed    uint64
	workers int
	// quick selects the reduced scale of the smoke test.
	quick bool
	// capture turns on telemetry capture (traced passes only).
	capture bool
}

// workload is one named benchmark input. setup runs only the input
// constructors the pass builds again inside its own timing, so that
// setup_s shows work moved into or out of construction; run is the pass.
type workload struct {
	name  string
	why   string
	setup func(c config) error
	run   func(p *pass) error
}

// workloads is the benchmark in report order. The scales below are the
// benchmark's definition: changing one changes what every metric means.
var workloads = []workload{
	{
		name:  "suite",
		why:   "every registered experiment at default scale, as gsbench -exp all: the wait of a user reproducing the paper, incl. fig12's re-runs and fig13 on fastsim",
		setup: func(c config) error { return buildTables(suiteSpec(c, "").Tuples, allLayouts...) },
		run:   func(p *pass) error { return specPass(p, suiteSpec, spec.Names()...) },
	},
	{
		name:  "imdb-detailed",
		why:   "fig9/fig10/fig11 on the detailed path with 16 MB tables (8x the L2): the event queue, cores, caches, controller and DRAM hot paths",
		setup: func(c config) error { return buildTables(detailedSpec(c, "").Tuples, allLayouts...) },
		run:   func(p *pass) error { return specPass(p, detailedSpec, "fig9", "fig10", "fig11") },
	},
	{
		name:  "indexed",
		why:   "hashjoin, spmv and ptrchase: gatherv/scatterv through the coalescer as blocking gathers, dominated by memctrl and memsys.AccessV",
		setup: func(c config) error { return buildTables(indexedSpec(c, "").Tuples, imdb.RowStore, imdb.GSStore) },
		run:   func(p *pass) error { return specPass(p, indexedSpec, "hashjoin", "spmv", "ptrchase") },
	},
	{
		name:  "sampled",
		why:   "fig9/fig10 at paper scale (64 MB tables) under interval sampling: functional fast-forward in imdb, almost no event queue or controller work",
		setup: func(c config) error { return buildTables(sampledSpec(c, "").Tuples, allLayouts...) },
		run:   func(p *pass) error { return specPass(p, sampledSpec, "fig9", "fig10") },
	},
	{
		name:  "farm",
		why:   "an in-process farm on a fresh result cache: a cold telemetered sweep, then warm resubmits served from cache (spec hashing, documents, cache I/O)",
		setup: farmSetup,
		run:   farmPass,
	},
	{
		name:  "stress",
		why:   "golden-model differential on thousands of tiny cache-resident rigs, inline, event-driven and indexed: rig construction and refmodel",
		setup: stressSetup,
		run:   stressPass,
	},
}

// lookupWorkload resolves a workload name.
func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

var allLayouts = []imdb.Layout{imdb.RowStore, imdb.ColumnStore, imdb.GSStore}

// buildTables runs the populated-table constructors a pass needs:
// machine.Default plus imdb.New for each layout at the given size.
func buildTables(tuples int, layouts ...imdb.Layout) error {
	for _, l := range layouts {
		mach, err := machine.Default()
		if err != nil {
			return err
		}
		if _, err := imdb.New(mach, l, tuples); err != nil {
			return err
		}
	}
	return nil
}

// baseSpec is the spec gsbench builds from its default flags.
func baseSpec(c config, exp string) spec.Spec {
	o := bench.DefaultOptions()
	return spec.Spec{
		Experiment: exp,
		Tuples:     o.Tuples,
		Txns:       o.Txns,
		GemmSizes:  o.GemmSizes,
		KVPairs:    4096,
		Vertices:   32768,
		Degree:     8,
		Seed:       c.seed,
		Workers:    c.workers,
	}
}

func suiteSpec(c config, exp string) spec.Spec {
	s := baseSpec(c, exp)
	if c.quick {
		s.Tuples, s.Txns, s.GemmSizes, s.KVPairs, s.Vertices = 8192, 500, []int{32, 64}, 2048, 8192
	}
	if exp == "fig9sampled" {
		// As gsbench: fig9sampled always samples, with the flag defaults.
		s.Sample = spec.DefaultSample()
	}
	return s
}

func detailedSpec(c config, exp string) spec.Spec {
	s := baseSpec(c, exp)
	s.Tuples, s.Txns = 262144, 20000
	if c.quick {
		s.Tuples, s.Txns = 8192, 500
	}
	return s
}

func indexedSpec(c config, exp string) spec.Spec {
	s := baseSpec(c, exp)
	s.Tuples, s.Txns, s.Vertices = 1048576, 40000, 262144
	if c.quick {
		s.Tuples, s.Txns, s.Vertices = 16384, 1000, 8192
	}
	return s
}

func sampledSpec(c config, exp string) spec.Spec {
	s := baseSpec(c, exp)
	s.Tuples, s.Txns = 1048576, 50000
	s.Sample = &spec.Sample{Interval: 32768, Warmup: 512, Measure: 1024, Seed: 1}
	if c.quick {
		s.Tuples, s.Txns = 8192, 500
		s.Sample = &spec.Sample{Interval: 4096, Warmup: 256, Measure: 256, Seed: 7}
	}
	return s
}

// truthSpec is the detailed (unsampled) twin of sampledSpec: its cycles
// are the truth sample_err_pct is measured against.
func truthSpec(c config, exp string) spec.Spec {
	s := sampledSpec(c, exp)
	s.Sample = nil
	return s
}

// specPass runs the named experiments one after another, each through
// spec.Run with its tables rendered as gsbench renders them.
func specPass(p *pass, build func(config, string) spec.Spec, exps ...string) error {
	for _, exp := range exps {
		s := build(p.cfg, exp)
		s.Telemetry = p.cfg.capture
		begin := time.Now()
		p.do(exp, func() error {
			out, err := spec.Run(&s)
			if err != nil {
				return err
			}
			for _, t := range out.Tables {
				fmt.Fprintln(io.Discard, t)
			}
			p.keep(exp, out)
			return nil
		})
		p.span("spec.Run "+exp, begin)
		p.tick(false)
	}
	return nil
}

// farmScale is the farm workload's sweep: seeds × experiments points of
// one small (L2-resident) size, then resubmits warm resubmissions.
func farmScale(c config) (seeds, tuples, txns, resubmits int) {
	if c.quick {
		return 2, 4096, 200, 3
	}
	return 16, 16384, 1000, 200
}

var farmExps = []string{"fig9", "hashjoin", "spmv"}

// farmPoints builds the sweep: every farm experiment at every seed
// derived from the workload seed, telemetered, one simulation worker per
// point (the engine supplies the parallelism).
func farmPoints(c config) []spec.Spec {
	n, tuples, txns, _ := farmScale(c)
	var points []spec.Spec
	for _, exp := range farmExps {
		for _, seed := range runner.Seeds(c.seed, n) {
			s := baseSpec(c, exp)
			s.Tuples, s.Txns, s.Seed, s.Workers = tuples, txns, seed, 1
			s.Telemetry, s.Epoch = true, uint64(telemetry.DefaultEpoch)
			points = append(points, s)
		}
	}
	return points
}

// farmSetup runs the farm's constructors: the cache and a started
// engine, plus the tables its fig9 and hashjoin points populate.
func farmSetup(c config) error {
	dir, err := os.MkdirTemp("", "gsperf-farm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := resultcache.Open(dir)
	if err != nil {
		return err
	}
	e := farm.New(cache, farm.Options{Workers: c.workers})
	e.Start()
	if err := e.Drain(context.Background()); err != nil {
		return err
	}
	_, tuples, _, _ := farmScale(c)
	return buildTables(tuples, allLayouts...)
}

// farmPass submits the sweep cold to a fresh cache, then resubmits it
// warm. Every point's document is fetched from the cache as a sweep
// client does; a warm document must be byte-identical to the cold one.
func farmPass(p *pass) error {
	dir, err := os.MkdirTemp("", "gsperf-farm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := resultcache.Open(dir)
	if err != nil {
		return err
	}
	e := farm.New(cache, farm.Options{Workers: p.cfg.workers})
	e.Start()
	// Every job has finished by then: Drain only stops the idle workers.
	defer e.Drain(context.Background())
	points := farmPoints(p.cfg)
	_, _, _, resubmits := farmScale(p.cfg)

	// Each phase starts and ends a timing segment, so its time is a
	// difference of the pass's normalised wall time.
	p.tick(true)
	phase := p.wallNS
	begin := time.Now()
	job, err := sweep(e, points)
	if err != nil {
		return err
	}
	cold := make([][]byte, len(points))
	for i, pt := range job.Points() {
		p.do(fmt.Sprintf("%s/%d", pt.Spec.Experiment, i), func() error {
			if pt.Status != farm.PointDone || pt.Cached {
				return fmt.Errorf("cold point %s: status %s, cached %v: %s", pt.Hash, pt.Status, pt.Cached, pt.Error)
			}
			doc, err := fetch(cache, pt.Hash)
			cold[i] = doc
			return err
		})
	}
	p.tick(true)
	p.farm.coldNS, p.farm.coldPoints = int64(p.wallNS-phase), len(points)
	p.span("farm cold sweep", begin)
	p.farm.docs, p.farm.points = cold, job.Points()

	phase = p.wallNS
	begin = time.Now()
	for r := 0; r < resubmits; r++ {
		job, err := sweep(e, points)
		if err != nil {
			return err
		}
		for i, pt := range job.Points() {
			p.do(fmt.Sprintf("warm %s/%d", pt.Spec.Experiment, i), func() error {
				if pt.Status != farm.PointDone || !pt.Cached {
					return fmt.Errorf("warm point %s: status %s, cached %v", pt.Hash, pt.Status, pt.Cached)
				}
				doc, err := fetch(cache, pt.Hash)
				if err == nil && !bytes.Equal(doc, cold[i]) {
					err = fmt.Errorf("warm document %s differs from its cold document", pt.Hash)
				}
				return err
			})
		}
		p.tick(false)
	}
	p.tick(true)
	p.farm.warmNS, p.farm.warmPoints = int64(p.wallNS-phase), resubmits*len(points)
	p.span("farm warm resubmits", begin)
	p.farm.cache = cache.Stats()
	return nil
}

// sweep submits points and waits for the job to finish.
func sweep(e *farm.Engine, points []spec.Spec) (*farm.Job, error) {
	job, err := e.Submit(points)
	if err != nil {
		return nil, err
	}
	return job, job.Wait(context.Background())
}

func fetch(cache *resultcache.Cache, hash string) ([]byte, error) {
	doc, ok, err := cache.Get(hash)
	if err == nil && !ok {
		err = fmt.Errorf("no document for %s", hash)
	}
	return doc, err
}

// stressBatch is one group of differential programs generated and run
// with the same options.
type stressBatch struct {
	name  string
	gen   stress.GenConfig
	opts  stress.Options
	seeds []uint64
}

// stressBatches splits the workload's program seeds, derived from the
// workload seed: plain programs, half run on the event-skipping path and
// half on the event-driven one, then indexed programs.
func stressBatches(c config) []stressBatch {
	plain, indexed := 3000, 1500
	if c.quick {
		plain, indexed = 40, 20
	}
	seeds := runner.Seeds(c.seed, plain+indexed)
	return []stressBatch{
		{name: "inline", seeds: seeds[:plain/2]},
		{name: "noinline", opts: stress.Options{NoInline: true}, seeds: seeds[plain/2 : plain]},
		{name: "indexed", gen: stress.GenConfig{Indexed: true}, seeds: seeds[plain:]},
	}
}

// stressSetup generates every program, the stress workload's input.
func stressSetup(c config) error {
	for _, b := range stressBatches(c) {
		for _, s := range b.seeds {
			stress.GenerateWith(s, b.gen)
		}
	}
	return nil
}

// stressChunk is how many programs run between two timing ticks.
const stressChunk = 100

// stressPass generates and verifies every program against the golden
// model on a pool of cfg.workers goroutines, as gsbench stress does; each
// divergence or error is a failed operation.
func stressPass(p *pass) error {
	pool := runner.Pool{Workers: p.cfg.workers}
	for _, b := range stressBatches(p.cfg) {
		begin := time.Now()
		for lo := 0; lo < len(b.seeds); lo += stressChunk {
			seeds := b.seeds[lo:min(lo+stressChunk, len(b.seeds))]
			err := pool.Run(len(seeds), func(i int) error {
				p.do(fmt.Sprintf("%s program seed %d", b.name, seeds[i]), func() error {
					res, err := stress.Run(stress.GenerateWith(seeds[i], b.gen), b.opts)
					if err == nil && res.Div != nil {
						err = fmt.Errorf("diverged: %s", res.Div)
					}
					return err
				})
				return nil
			})
			if err != nil {
				return err
			}
			p.tick(false)
		}
		p.programs += len(b.seeds)
		p.span("stress "+b.name, begin)
	}
	return nil
}
