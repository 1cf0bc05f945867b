package mutants

// catalogue is every mutant and the check that kills it. A stress row
// keeps what the differential checker promises for a real bug: a
// non-zero exit, a reproducer shrunk to one op, and a flight dump
// written next to it.
var catalogue = []mutant{
	{
		// The CTL's AND gate (paper §3.3) becomes an OR: every chip
		// computes the wrong column for a non-zero pattern.
		name:    "ctl-and-or",
		file:    "internal/gsdram/ctl.go",
		old:     "return (id & int(patt&p.PatternMask())) ^ col",
		new:     "return (id | int(patt&p.PatternMask())) ^ col",
		gsbench: []string{"stress", "-seed", "1", "-count", "200", "-repro-out", "repro.txt"},
		want: `(?s)stress: shrunk to 1 ops .*\n  op   0: core 0 pattstore .*` +
			`flight dump written to repro\.txt\.flight\.ndjson\n` +
			`.*program 0 \(seed \d+\) diverged: gather-index at op 8:`,
	},
	{
		// A gatherv returns its words rotated by one place.
		name:    "gatherv-rotated",
		file:    "internal/gsdram/gatherv.go",
		old:     "dst[i] = m.getWord(bank, row, col, chip)",
		new:     "dst[(i+1)%len(logical)] = m.getWord(bank, row, col, chip)",
		gsbench: []string{"stress", "-indexed", "-seed", "1", "-count", "200", "-repro-out", "repro.txt"},
		want: `(?s)stress: shrunk to 1 ops .*\n  op   0: core 0 gatherv +region 0 idx \[\d+ \d+\]\n.*` +
			`flight dump written to repro\.txt\.flight\.ndjson\n.*program 0 \(seed \d+\) diverged: load-value`,
	},
	{
		// An L2 hit on a prefetched line no longer counts as useful.
		name: "prefuseful-uncounted",
		file: "internal/memsys/memsys.go",
		old:  "s.ctr.PrefUseful++",
		new:  "",
		pkg:  "./internal/memsys", test: "TestOverlapInvalidationDropsPrefetchMark",
		want: "counted 0 useful prefetches",
	},
	{
		// A fill no longer resets its way's prefetch mark, so a line
		// filled where a marked line was invalidated inherits the mark:
		// the stale-mark defect of the side table this mark replaced.
		name: "fill-keeps-mark",
		file: "internal/cache/cache.go",
		old:  "\ts.marked &^= bit\n",
		new:  "",
		pkg:  "./internal/memsys", test: "TestOverlapInvalidationDropsPrefetchMark",
		want: "counted 1 useful prefetches, want 0",
	},
	{
		// A use no longer clears its way's column of the recency matrix,
		// so no row of a full set is ever zero and the victim choice
		// leaves the set's ways.
		name: "lru-column-kept",
		file: "internal/cache/cache.go",
		old:  "s.lru = (s.lru | 0xFF<<(8*w)) &^ (lanes01 << w)",
		new:  "s.lru |= 0xFF << (8 * w)",
		pkg:  "./internal/cache", test: "TestCacheMatchesReferenceModel",
		want: `1 ways, step \d+: fill\(0x[0-9a-f]+,\d+\) evicted .* \(false\), reference .* \(true\)`,
	},
	{
		// find trusts the fingerprint byte and returns the first matching
		// lane without comparing the key.
		name: "fingerprint-trusted",
		file: "internal/cache/cache.go",
		old:  "if c.keys[si*c.ways+int(w)] == key {",
		new:  "if true {",
		pkg:  "./internal/cache", test: "TestFingerprintCollisionsInOneSet",
		want: "1 resident lines after filling 8 colliding ones, want 8",
	},
	{
		// The fast-forward fills a prefetch candidate without marking it.
		name: "warm-prefetch-unmarked",
		file: "internal/memsys/memsys.go",
		old:  "s.fillL2(cl, cand.Pattern, false, true)\n\t\t\ts.l2.Mark(cl, cand.Pattern)",
		new:  "s.fillL2(cl, cand.Pattern, false, true)",
		pkg:  "./internal/memsys", test: "TestWarmAccessMatchesDetailed",
		want: "caches differ",
	},
	{
		// The fast-forward never promotes: a confident strided load over
		// a shuffled page warms its own line, not the gathered one.
		name: "warm-promotion-skipped",
		file: "internal/memsys/memsys.go",
		old:  "if s.cfg.AutoPattern && !a.Write &&",
		new:  "if s.cfg.AutoPattern && !s.warm && !a.Write &&",
		pkg:  "./internal/memsys", test: "TestWarmAccessMatchesDetailed",
		want: `(?s)/auto=true/.*caches differ`,
	},
	{
		// tFAW no longer delays a fifth ACT.
		name: "tfaw-dropped",
		file: "internal/dram/rank.go",
		old:  "r.actTimes[r.actHead]+sim.Cycle(r.timing.TFAW)",
		new:  "r.actTimes[r.actHead]",
		pkg:  "./internal/dram", test: "TestFourActivateWindow",
		want: "violates tFAW window",
	},
	{
		// FR-FCFS loses its first-ready half: the oldest request wins.
		name: "row-hit-first-off",
		file: "internal/memctrl/memctrl.go",
		old:  "if ch.ctrl.cfg.Sched == PolicyFRFCFS {",
		new:  "if false {",
		pkg:  "./internal/memctrl", test: "TestFRFCFSPrioritisesRowHits",
		want: "FR-FCFS must serve the hit first",
	},
	{
		// A read that hits a queued write goes to DRAM.
		name: "forwarding-off",
		file: "internal/memctrl/memctrl.go",
		old:  "if w.Addr == req.Addr && w.Pattern == req.Pattern {",
		new:  "if false && w.Addr == req.Addr && w.Pattern == req.Pattern {",
		pkg:  "./internal/memctrl", test: "TestWriteToReadForwarding",
		want: "want fast forwarding",
	},
	{
		// The sampler's interval uses n degrees of freedom, not n-1.
		name: "meanci-n-dof",
		file: "internal/stats/ci.go",
		old:  "TQuantile(len(xs)-1)",
		new:  "TQuantile(len(xs))",
		pkg:  "./internal/stats", test: "TestMeanCI",
		want: `three samples: MeanCI = 2 ±`,
	},
	{
		// Past 30 degrees of freedom the interval is a 90% one.
		name: "t-quantile-90",
		file: "internal/stats/ci.go",
		old:  "return 1.960",
		new:  "return 1.645",
		pkg:  "./internal/stats", test: "TestMeanCI",
		want: `TQuantile\(31\) = 1\.645, want 1\.96`,
	},
	{
		// Normalized rounds the epoch up past itself, so normalizing a
		// normalized spec changes it and a resubmitted point misses the
		// result cache.
		name: "normalized-not-idempotent",
		file: "internal/spec/spec.go",
		old:  "} else if s.Epoch == 0 {\n\t\ts.Epoch = uint64(telemetry.DefaultEpoch)",
		new:  "} else {\n\t\ts.Epoch = (s.Epoch/uint64(telemetry.DefaultEpoch) + 1) * uint64(telemetry.DefaultEpoch)",
		pkg:  "./internal/spec", test: "FuzzSpecDecode",
		want: "canonical encoding changed on a round trip",
	},
	{
		// fig12's input memo holds a telemetered result, whose runs a
		// telemetered fig12 would then not capture.
		name: "fig12-memo-holds-telemetered",
		file: "internal/spec/inputs.go",
		old:  "\tif opts.Capture != nil {\n\t\treturn\n\t}\n\tkey := string(s.Canonical())",
		new:  "\tkey := string(s.Canonical())",
		pkg:  "./internal/spec", test: "TestTelemeteredFig12RunsItsInputs",
		want: "a telemetered run wrote the input memo",
	},
	{
		// The result cache serves a document without checking its sum.
		name: "cache-checksum-skipped",
		file: "internal/resultcache/resultcache.go",
		old:  " || checksum(b[sumLen:]) != string(b[:sumLen-1])",
		new:  "",
		pkg:  "./internal/resultcache", test: "TestCorruptDocumentIsQuarantinedMiss",
		want: "want a miss",
	},
	{
		// metrics-diff's -all is inverted for equal metrics: it prints
		// them without -all.
		name: "metrics-diff-all-inverted",
		file: "cmd/gsbench/diff.go",
		old:  "if av == bv && !all {",
		new:  "if av == bv && all {",
		pkg:  "./cmd/gsbench", test: "FuzzDiffDocuments",
		want: "metrics-diff of a document with 1 runs against itself",
	},
}
