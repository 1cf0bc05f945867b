// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§5). Run them with:
//
//	go test -bench=. -benchmem
//
// Each Benchmark runs the corresponding experiment at a reduced scale so
// the whole suite finishes in minutes; cmd/gsbench runs the same
// experiments at any scale (including the paper's 1 M-tuple table) and
// prints the result tables. Custom metrics report the headline ratios so
// `go test -bench` output doubles as a figure summary.
package gsdram_test

import (
	"testing"

	"gsdram"
	"gsdram/internal/bench"
	"gsdram/internal/gemm"
	"gsdram/internal/imdb"
	"gsdram/internal/machine"
)

func benchOpts() gsdram.Options {
	o := gsdram.QuickOptions()
	o.Tuples = 32768
	o.Txns = 2000
	return o
}

// BenchmarkTable1Config renders the simulated-system configuration
// (paper Table 1).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if gsdram.Table1().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig7GatherMap regenerates the Figure 7 gather map for
// GS-DRAM(4,2,2).
func BenchmarkFig7GatherMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if gsdram.Fig7(gsdram.GS422, 4).String() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig9Transactions reproduces Figure 9: the transaction workload
// across eight field mixes and three layouts. Reported metrics:
// Col/GS and Row/GS average execution-time ratios (paper: ~3x and ~1x).
func BenchmarkFig9Transactions(b *testing.B) {
	opts := benchOpts()
	var r *bench.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = gsdram.RunFig9(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgCycles(imdb.ColumnStore)/r.AvgCycles(imdb.GSStore), "colstore/gs-ratio")
	b.ReportMetric(r.AvgCycles(imdb.RowStore)/r.AvgCycles(imdb.GSStore), "rowstore/gs-ratio")
}

// BenchmarkFig10Analytics reproduces Figure 10: the analytics workload,
// 1-2 columns, with and without prefetching. Reported metrics: Row/GS
// ratios (paper: ~2x) and Col/GS (paper: ~1x).
func BenchmarkFig10Analytics(b *testing.B) {
	opts := benchOpts()
	var r *bench.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = gsdram.RunFig10(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgCycles(imdb.RowStore, true)/r.AvgCycles(imdb.GSStore, true), "rowstore/gs-pref-ratio")
	b.ReportMetric(r.AvgCycles(imdb.ColumnStore, true)/r.AvgCycles(imdb.GSStore, true), "colstore/gs-pref-ratio")
}

// BenchmarkFig11HTAP reproduces Figure 11: concurrent analytics +
// transactions. Reported metric: GS/Row transaction-throughput ratio with
// prefetching (paper: > 1, the row store starves under the prefetcher).
func BenchmarkFig11HTAP(b *testing.B) {
	opts := benchOpts()
	opts.Tuples = 65536
	var r *bench.Fig11Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = gsdram.RunFig11(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.TxnThroughput[imdb.GSStore][1]/r.TxnThroughput[imdb.RowStore][1], "gs/rowstore-tput-pref")
	b.ReportMetric(float64(r.AnalyticsCycles[imdb.RowStore][1])/float64(r.AnalyticsCycles[imdb.GSStore][1]), "rowstore/gs-analytics-pref")
}

// BenchmarkFig12Energy reproduces Figure 12: average performance and
// energy. Reported metrics: energy ratios (paper: transactions Col/GS
// ~2.1x; analytics Row/GS ~2.4x with prefetching).
func BenchmarkFig12Energy(b *testing.B) {
	opts := benchOpts()
	var r *bench.Fig12Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = gsdram.RunFig12(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Fig9.AvgEnergy(imdb.ColumnStore)/r.Fig9.AvgEnergy(imdb.GSStore), "txn-col/gs-energy")
	b.ReportMetric(r.Fig10.AvgEnergy(imdb.RowStore, true)/r.Fig10.AvgEnergy(imdb.GSStore, true), "ana-row/gs-energy")
}

// BenchmarkFig13GEMM reproduces Figure 13: GEMM with the best tiled
// layout vs GS-DRAM, normalised to non-tiled. Reported metric: GS-DRAM's
// improvement over the best tiled variant at the largest size (paper:
// ~10%).
func BenchmarkFig13GEMM(b *testing.B) {
	opts := benchOpts()
	var r *bench.Fig13Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = gsdram.RunFig13(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	n := opts.GemmSizes[len(opts.GemmSizes)-1]
	rs := r.Results[n]
	bestTiled := rs[1].Stats.Cycles
	if rs[2].Stats.Cycles < bestTiled {
		bestTiled = rs[2].Stats.Cycles
	}
	b.ReportMetric(100*(1-float64(rs[3].Stats.Cycles)/float64(bestTiled)), "gs-vs-tiled-%")
}

// BenchmarkKVStore reproduces the §5.3 key-value use case: full key scans
// on the plain vs GS (pattern 1) layouts. Reported metric: line-fetch
// ratio (2x fewer lines with gathered keys).
func BenchmarkKVStore(b *testing.B) {
	opts := gsdram.DefaultOptions()
	opts.Seed = 7
	var r *bench.KVResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = gsdram.RunKVStore(4096, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.ScanLines[0])/float64(r.ScanLines[1]), "plain/gs-lines")
}

// BenchmarkGraphProcessing runs the Section 5.3 graph workload: GS-DRAM
// must track SoA on the scan-heavy PageRank kernel and AoS on random
// vertex updates. Reported metrics: GS cycles relative to the better
// specialised layout in each phase.
func BenchmarkGraphProcessing(b *testing.B) {
	opts := gsdram.DefaultOptions() // seed 42
	opts.Txns = 1500                // random vertex updates
	var r *bench.GraphResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = gsdram.RunGraph(16384, 4, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.PageRank[2])/float64(r.PageRank[1]), "gs/soa-pagerank")
	b.ReportMetric(float64(r.Update[2])/float64(r.Update[0]), "gs/aos-updates")
}

// BenchmarkChannelScaling measures bandwidth scaling: two concurrent
// prefetched scans on 1 vs 2 DDR3-1600 channels. Reported metric: the
// speedup from the second channel.
func BenchmarkChannelScaling(b *testing.B) {
	opts := benchOpts()
	var r *bench.ChannelsResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.RunChannels(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Cycles[0])/float64(r.Cycles[1]), "2ch-speedup")
	b.ReportMetric(r.GBs[0], "1ch-GB/s")
}

// BenchmarkRelatedWorkImpulse compares in-DRAM gathering against the
// Impulse/DGMS-style controller gather (paper §7). Reported metric: the
// DRAM line-read ratio (GS-DRAM: 1 line per gather; Impulse: c lines).
func BenchmarkRelatedWorkImpulse(b *testing.B) {
	opts := benchOpts()
	var r *bench.ImpulseResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.RunImpulse(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.LineReads[1])/float64(r.LineReads[0]), "impulse/gs-line-reads")
	b.ReportMetric(r.EnergyMJ[1]/r.EnergyMJ[0], "impulse/gs-energy")
}

// BenchmarkPatternBitSweep sweeps the pattern-ID width (paper §3.5): each
// extra bit halves the line fetches of a field scan. Reported metric:
// line-read ratio between 0 and 3 pattern bits.
func BenchmarkPatternBitSweep(b *testing.B) {
	opts := benchOpts()
	var r *bench.PatternSweepResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.RunPatternSweep(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.LineReads[0])/float64(r.LineReads[3]), "p0/p3-line-reads")
}

// BenchmarkAblationShuffling quantifies §3.2: READ commands per gather
// under the simple vs shuffled mapping (the reason the shuffle exists).
func BenchmarkAblationShuffling(b *testing.B) {
	p := gsdram.GS844
	set := gsdram.StrideSet(0, 8, 8)
	for i := 0; i < b.N; i++ {
		if p.ReadsNeeded(gsdram.SimpleMapping, set) != 8 {
			b.Fatal("simple mapping changed")
		}
		if p.ReadsNeeded(gsdram.ShuffledMapping, set) != 1 {
			b.Fatal("shuffled mapping changed")
		}
	}
}

// BenchmarkAblationShuffleFunctions compares gather throughput of the
// functional module under the default, masked and XOR shuffling functions
// (paper §6.1) — the mechanism's cost is function-independent.
func BenchmarkAblationShuffleFunctions(b *testing.B) {
	for _, tc := range []struct {
		name string
		fn   gsdram.ShuffleFunc
	}{
		{"default", nil},
		{"masked", gsdram.MaskedShuffle(3, 0b101)},
		{"xor", gsdram.XORShuffle([]int{0b11, 0b100, 0b1000})},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m, err := gsdram.NewModuleFunc(gsdram.GS844, gsdram.Geometry{Banks: 1, Rows: 4, Cols: 128}, tc.fn)
			if err != nil {
				b.Fatal(err)
			}
			line := make([]uint64, 8)
			for i := range line {
				line[i] = uint64(i)
			}
			for i := 0; i < b.N; i++ {
				col := i & 127
				patt := gsdram.Pattern(i & 7)
				if err := m.WriteLine(0, 0, col, patt, true, line); err != nil {
					b.Fatal(err)
				}
				if _, err := m.ReadLine(0, 0, col, patt, true, line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAutoGather evaluates the transparent pattern-promotion
// extension (paper §4, future work): plain strided loads over shuffled
// pages, with the controller promoting them to gathers. Reported metric:
// fraction of the explicit-pattload advantage recovered.
func BenchmarkAblationAutoGather(b *testing.B) {
	opts := benchOpts()
	var r *bench.AutoGatherResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.RunAutoGather(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	explicit, plain, auto := float64(r.Cycles[0]), float64(r.Cycles[1]), float64(r.Cycles[2])
	b.ReportMetric(100*(plain-auto)/(plain-explicit), "gap-recovered-%")
}

// BenchmarkAblationScheduler compares the Table 1 controller policy
// (FR-FCFS, open row) against FCFS and closed-row ablations. Reported
// metric: analytics slowdown of closed-row relative to open-row.
func BenchmarkAblationScheduler(b *testing.B) {
	opts := benchOpts()
	var r *bench.SchedulerAblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = bench.RunSchedulerAblation(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Cycles[2][0])/float64(r.Cycles[0][0]), "closedrow/openrow-scan")
	b.ReportMetric(float64(r.Cycles[1][0])/float64(r.Cycles[0][0]), "fcfs/frfcfs-scan")
}

// --- micro-benchmarks of the substrate itself ---

// BenchmarkGatherReadLine measures the functional gather fast path.
func BenchmarkGatherReadLine(b *testing.B) {
	m := gsdram.NewModule(gsdram.GS844, gsdram.Geometry{Banks: 1, Rows: 1, Cols: 128})
	dst := make([]uint64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ReadLine(0, 0, i&127, 7, true, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCTL measures the column translation logic.
func BenchmarkCTL(b *testing.B) {
	p := gsdram.GS844
	s := 0
	for i := 0; i < b.N; i++ {
		s += p.CTL(i&7, gsdram.Pattern(i&7), i&127)
	}
	_ = s
}

// BenchmarkGEMMSimulation measures simulator throughput on one 64x64
// GS-DRAM GEMM (useful for tracking the harness's own performance).
func BenchmarkGEMMSimulation(b *testing.B) {
	mach, err := machine.Default()
	if err != nil {
		b.Fatal(err)
	}
	w, err := gemm.NewWorkload(mach, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(gemm.GSDRAM, 32); err != nil {
			b.Fatal(err)
		}
	}
}
