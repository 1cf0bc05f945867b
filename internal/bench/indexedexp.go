package bench

import (
	"fmt"

	"gsdram/internal/cpu"
	"gsdram/internal/gemm"
	"gsdram/internal/graph"
	"gsdram/internal/imdb"
	"gsdram/internal/machine"
	"gsdram/internal/memsys"
	"gsdram/internal/stats"
)

// This file holds the indexed gather/scatter workloads: three kernels
// whose hot loops access memory through explicit index vectors rather
// than strides, each compared across three access paths:
//
//	scalar       — plain layout, one cached load per element: the
//	               non-coalesced fallback the speedups are measured
//	               against (each element pays full per-access latency
//	               through a blocking in-order core);
//	gatherv-flat — plain layout, gatherv ops: the coalescer batches
//	               elements into per-line default bursts, winning via
//	               bank-level parallelism;
//	gatherv-gs   — shuffled (pattmalloc) layout, gatherv ops: stride-
//	               structured index vectors additionally coalesce into
//	               in-DRAM pattern gathers (8 elements per burst).
//
// The gap between gatherv-gs and gatherv-flat measures exactly what the
// paper's stride-only mechanism contributes on indexed code: large on
// the hash-join build scan (a disguised stride-8 walk), near zero on
// SpMV and pointer chasing (unstructured vectors), which bounds the
// stride-only claims honestly.

// indexedVariants names the access paths, in run order; telemetry labels
// are "<experiment>/<variant>".
var indexedVariants = [3]string{"scalar", "gatherv-flat", "gatherv-gs"}

// IndexedResult reports one indexed workload across the three access
// paths.
type IndexedResult struct {
	Name  string
	Scale string // human-readable problem size
	// Per-variant metrics, indexed in indexedVariants order.
	Cycles    [3]uint64
	DRAMReads [3]uint64
	Bursts    [3]uint64 // gatherv DRAM bursts
	Patterned [3]uint64 // bursts served by in-DRAM pattern gathers
	Fallback  [3]uint64 // default-pattern fallback bursts
	Checksum  uint64    // functional outcome, identical across variants
}

// SpeedupVsFallback is the headline number: gatherv on the GS layout
// versus per-element scalar loads on the plain layout.
func (r *IndexedResult) SpeedupVsFallback() float64 {
	if r.Cycles[2] == 0 {
		return 0
	}
	return float64(r.Cycles[0]) / float64(r.Cycles[2])
}

// SpeedupGSVsFlat isolates the in-DRAM pattern contribution: gatherv on
// the GS layout versus gatherv on the plain layout.
func (r *IndexedResult) SpeedupGSVsFlat() float64 {
	if r.Cycles[2] == 0 {
		return 0
	}
	return float64(r.Cycles[1]) / float64(r.Cycles[2])
}

// Table renders the comparison.
func (r *IndexedResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Indexed %s (%s): access-path comparison", r.Name, r.Scale),
		"access path", "Mcycles", "DRAM reads", "gv bursts", "patterned", "fallback")
	for i, v := range indexedVariants {
		t.Add(v, stats.Mcycles(r.Cycles[i]),
			fmt.Sprintf("%d", r.DRAMReads[i]),
			fmt.Sprintf("%d", r.Bursts[i]),
			fmt.Sprintf("%d", r.Patterned[i]),
			fmt.Sprintf("%d", r.Fallback[i]))
	}
	t.Add("speedup vs fallback", stats.Ratio(float64(r.Cycles[0]), float64(r.Cycles[2])), "", "", "", "")
	t.Add("speedup gs vs flat", stats.Ratio(float64(r.Cycles[1]), float64(r.Cycles[2])), "", "", "", "")
	return t
}

// runIndexedRig simulates one variant's stream on a fresh single-core
// rig and folds its metrics into slot i of the result.
func runIndexedRig(res *IndexedResult, i int, opts Options, s cpu.Stream) error {
	r, err := newRig(opts, res.Name+"/"+indexedVariants[i], memsys.DefaultConfig(1))
	if err != nil {
		return err
	}
	m := run(r, 0, s)
	res.Cycles[i] = m.Cycles
	res.DRAMReads[i] = m.Ctrl.ReadsServed
	res.Bursts[i] = m.Mem.GathervBursts
	res.Patterned[i] = m.Mem.GathervPatterned
	res.Fallback[i] = m.Mem.GathervFallback
	return nil
}

// checkIndexedChecksums enforces the cross-variant functional invariant.
func checkIndexedChecksums(r *IndexedResult, sums [3]uint64) error {
	if sums[0] != sums[1] || sums[0] != sums[2] {
		return fmt.Errorf("bench: %s checksums diverge across variants: %#x %#x %#x",
			r.Name, sums[0], sums[1], sums[2])
	}
	r.Checksum = sums[0]
	return nil
}

// hashJoinProbeBatch is the probe-phase gatherv vector length.
const hashJoinProbeBatch = 32

// RunHashJoin runs the hash-join probe workload: build a join index
// over the key column (a stride-8 field scan), then Txns random probes
// fetching matched payloads.
func RunHashJoin(opts Options) (*IndexedResult, error) {
	r := &IndexedResult{
		Name:  "hashjoin",
		Scale: fmt.Sprintf("%d tuples, %d probes", opts.Tuples, opts.Txns),
	}
	var sums [3]uint64
	err := opts.pool().Run(3, func(i int) error {
		layout := imdb.RowStore
		if i == 2 {
			layout = imdb.GSStore
		}
		db, err := templateDB(layout, opts.Tuples)
		if err != nil {
			return err
		}
		var hres imdb.HashJoinResult
		s, err := db.HashJoinStream(opts.Txns, hashJoinProbeBatch, opts.Seed, i > 0, &hres)
		if err != nil {
			return err
		}
		if err := runIndexedRig(r, i, opts, s); err != nil {
			return err
		}
		want := imdb.ExpectedHashJoinChecksum(opts.Tuples, opts.Txns, hashJoinProbeBatch, opts.Seed)
		if hres != want {
			return fmt.Errorf("bench: hashjoin %s result %+v, want %+v", indexedVariants[i], hres, want)
		}
		sums[i] = hres.Checksum
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := checkIndexedChecksums(r, sums); err != nil {
		return nil, err
	}
	return r, nil
}

// spmvNNZPerRow is the fixed row degree of the random CSR matrix.
const spmvNNZPerRow = 16

// spmvRows derives the output dimension from the table-size knob so one
// -tuples flag scales every experiment.
func spmvRows(tuples int) int {
	rows := tuples / 64
	if rows < 64 {
		rows = 64
	}
	return (rows + 7) &^ 7
}

// spmvCols derives the x-vector dimension: 8x the tuple knob, so the
// row gathers draw sparsely from an x far larger than the L2 and are
// compulsory-miss dominated — the regime where indexed gathers matter
// (a cache-resident x makes the scalar variant win trivially; see
// gemm.SpMV).
func spmvCols(tuples int) int {
	cols := tuples * 8
	if cols < 4096 {
		cols = 4096
	}
	return (cols + 7) &^ 7
}

// RunSpMV runs the CSR sparse matrix-vector workload.
func RunSpMV(opts Options) (*IndexedResult, error) {
	rows, cols := spmvRows(opts.Tuples), spmvCols(opts.Tuples)
	r := &IndexedResult{
		Name:  "spmv",
		Scale: fmt.Sprintf("%dx%d, %d nnz/row", rows, cols, spmvNNZPerRow),
	}
	var sums [3]uint64
	err := opts.pool().Run(3, func(i int) error {
		mach, err := machine.Default()
		if err != nil {
			return err
		}
		sp, err := gemm.NewSpMV(mach, rows, cols, spmvNNZPerRow, opts.Seed, i == 2)
		if err != nil {
			return err
		}
		var sres gemm.SpMVResult
		s, err := sp.Stream(i > 0, &sres)
		if err != nil {
			return err
		}
		if err := runIndexedRig(r, i, opts, s); err != nil {
			return err
		}
		if want := sp.Reference(); sres.YSum != want {
			return fmt.Errorf("bench: spmv %s YSum %d, want %d", indexedVariants[i], sres.YSum, want)
		}
		sums[i] = sres.YSum
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := checkIndexedChecksums(r, sums); err != nil {
		return nil, err
	}
	return r, nil
}

// ptrChaseChains is the lockstep batch width of the traversal.
const ptrChaseChains = 64

// RunPtrChase runs the pointer-chasing traversal: Txns/8 lockstep steps
// of 64 chains over a random graph's next-pointer fields.
func RunPtrChase(vertices, avgDeg int, opts Options) (*IndexedResult, error) {
	if vertices <= 0 || vertices%8 != 0 {
		return nil, fmt.Errorf("bench: vertices must be a positive multiple of 8")
	}
	steps := opts.Txns / 8
	// Cap total hops at the vertex count: the chains then walk disjoint
	// arcs of the pointer cycle and never revisit a vertex, the no-reuse
	// traversal regime where cache-bypassing gathers are the right tool.
	// (Past one full lap the table is L2-resident and cached scalar loads
	// win — gatherv is the wrong access path for reused working sets.)
	if max := vertices / ptrChaseChains; steps > max {
		steps = max
	}
	if steps < 1 {
		steps = 1
	}
	r := &IndexedResult{
		Name:  "ptrchase",
		Scale: fmt.Sprintf("%d vertices, %d chains x %d steps", vertices, ptrChaseChains, steps),
	}
	var sums [3]uint64
	err := opts.pool().Run(3, func(i int) error {
		layout := graph.AoS
		if i == 2 {
			layout = graph.GS
		}
		mach, err := machine.Default()
		if err != nil {
			return err
		}
		g, err := graph.NewRandom(mach, layout, vertices, avgDeg, opts.Seed)
		if err != nil {
			return err
		}
		if err := g.InitPtrChase(opts.Seed + 2); err != nil {
			return err
		}
		var pres graph.PtrChaseResult
		s, err := g.PtrChaseStream(ptrChaseChains, steps, opts.Seed+1, i > 0, &pres)
		if err != nil {
			return err
		}
		if err := runIndexedRig(r, i, opts, s); err != nil {
			return err
		}
		if want := uint64(ptrChaseChains) * uint64(steps); pres.Hops != want {
			return fmt.Errorf("bench: ptrchase %s hops %d, want %d", indexedVariants[i], pres.Hops, want)
		}
		sums[i] = pres.Checksum
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := checkIndexedChecksums(r, sums); err != nil {
		return nil, err
	}
	return r, nil
}
