package gemm

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/cpu"
	"gsdram/internal/gsdram"
	"gsdram/internal/machine"
	"gsdram/internal/sim"
)

// SpMV is a CSR sparse matrix-vector kernel, the indexed counterpart of
// the dense GEMM above: y = A*x where A is a rows x cols matrix with a
// fixed number of random nonzeros per row. The values and column-index
// arrays stream sequentially (one cache line per 8 nonzeros), but the
// x-vector accesses are indexed by the column array — the canonical
// gather that stride-only GS-DRAM patterns cannot express. The matrix
// is rectangular (cols >> rows * nnzPerRow in the benchmark setup) so x
// is not cache-resident: gatherv bypasses the caches, so its win over
// scalar loads exists only in this regime — with a cache-sized x the
// scalar variant simply hits in L1 and wins.
//
// This workload is deliberately an honest limit case: random column
// indices give gatherv vectors with almost no stride structure, so the
// coalescer's per-line grouping yields mostly default (fallback) bursts
// even on a shuffled x. The gatherv win over scalar loads here comes
// from burst batching and bank-level parallelism, not from pattern
// gathers — the cycle gap between the flat and GS variants should be
// near zero, unlike the dense kernels.

// SpMVResult accumulates the functional outcome; every access variant of
// the same (rows, nnzPerRow, seed) must agree on it.
type SpMVResult struct {
	Rows int
	NNZ  uint64
	// YSum is the sum of all output-vector words (integer arithmetic, so
	// it verifies exactly against Reference).
	YSum uint64
}

// SpMV holds the CSR operands in machine memory.
type SpMV struct {
	mach      *machine.Machine
	rows      int
	cols      int
	nnzPerRow int
	gs        bool

	colIdx []int32 // column index of every nonzero, row-major

	valBase addrmap.Addr // nonzero values, streamed
	colBase addrmap.Addr // column indices, streamed
	xBase   addrmap.Addr // dense input vector, gathered
	yBase   addrmap.Addr // dense output vector
}

// NewSpMV allocates and fills the operands with deterministic values.
// rows and cols must be positive multiples of 8; gs places the x vector
// in shuffled (pattmalloc) pages so gatherv may use pattern bursts where
// the index vector happens to be stride-structured.
func NewSpMV(mach *machine.Machine, rows, cols, nnzPerRow int, seed uint64, gs bool) (*SpMV, error) {
	if rows <= 0 || rows%8 != 0 || cols <= 0 || cols%8 != 0 {
		return nil, fmt.Errorf("gemm: spmv rows (%d) and cols (%d) must be positive multiples of 8", rows, cols)
	}
	if nnzPerRow <= 0 {
		return nil, fmt.Errorf("gemm: spmv nnzPerRow must be positive, got %d", nnzPerRow)
	}
	s := &SpMV{mach: mach, rows: rows, cols: cols, nnzPerRow: nnzPerRow, gs: gs}
	nnz := rows * nnzPerRow
	var err error
	if s.valBase, err = mach.AS.Malloc(nnz * 8); err != nil {
		return nil, err
	}
	if s.colBase, err = mach.AS.Malloc(nnz * 8); err != nil {
		return nil, err
	}
	if gs {
		s.xBase, err = mach.AS.PattMalloc(cols*8, ColPattern)
	} else {
		s.xBase, err = mach.AS.Malloc(cols * 8)
	}
	if err != nil {
		return nil, err
	}
	if s.yBase, err = mach.AS.Malloc(rows * 8); err != nil {
		return nil, err
	}

	rng := sim.NewRand(seed)
	s.colIdx = make([]int32, nnz)
	for k := range s.colIdx {
		s.colIdx[k] = int32(rng.Intn(cols))
		if err := mach.WriteWord(s.valAddr(k), uint64(1+k%17)); err != nil {
			return nil, err
		}
		if err := mach.WriteWord(s.colAddr(k), uint64(s.colIdx[k])); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cols; i++ {
		if err := mach.WriteWord(s.xAddr(i), uint64(3*i+1)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Rows returns the output dimension.
func (s *SpMV) Rows() int { return s.rows }

// Cols returns the input (x vector) dimension.
func (s *SpMV) Cols() int { return s.cols }

func (s *SpMV) valAddr(k int) addrmap.Addr { return s.valBase + addrmap.Addr(k*8) }
func (s *SpMV) colAddr(k int) addrmap.Addr { return s.colBase + addrmap.Addr(k*8) }
func (s *SpMV) xAddr(i int) addrmap.Addr   { return s.xBase + addrmap.Addr(i*8) }
func (s *SpMV) yAddr(r int) addrmap.Addr   { return s.yBase + addrmap.Addr(r*8) }

func (s *SpMV) readWord(a addrmap.Addr) uint64 {
	v, err := s.mach.ReadWord(a)
	if err != nil {
		panic(fmt.Sprintf("gemm: spmv functional read failed: %v", err))
	}
	return v
}

// Stream returns the instruction stream of one full y = A*x. With
// gatherv each row's x accesses issue as one indexed gather; without,
// each is a separate scalar load — the per-element fallback cost model.
func (s *SpMV) Stream(gatherv bool, res *SpMVResult) (cpu.Stream, error) {
	if res == nil {
		res = &SpMVResult{}
	}
	res.Rows = s.rows
	alt := gsdram.Pattern(0)
	if s.gs {
		alt = ColPattern
	}
	row := 0
	var pending cpu.OpQueue

	emitRow := func(r int) {
		start := r * s.nnzPerRow
		// Structure streaming: vals and colidx are sequential; charge one
		// load per cache line (8 words) of each.
		for k := start; k < start+s.nnzPerRow; k += 8 {
			pending.Push(
				cpu.Load(s.valAddr(k), 0x4000),
				cpu.Load(s.colAddr(k), 0x4001),
			)
		}
		// x gather: indexed by the row's column entries.
		addrs := make([]addrmap.Addr, s.nnzPerRow)
		var y uint64
		for i := 0; i < s.nnzPerRow; i++ {
			k := start + i
			c := int(s.colIdx[k])
			addrs[i] = s.xAddr(c)
			y += s.readWord(s.valAddr(k)) * s.readWord(s.xAddr(c))
		}
		if gatherv {
			pending.Push(cpu.GatherV(addrs, s.gs, alt, 0x4100))
		} else {
			for _, a := range addrs {
				op := cpu.Load(a, 0x4100)
				op.Shuffled = s.gs
				op.AltPattern = alt
				pending.Push(op)
			}
		}
		pending.Push(
			cpu.Compute(2*s.nnzPerRow), // FMAs + loop
			cpu.Store(s.yAddr(r), 0x4200),
		)
		if err := s.mach.WriteWord(s.yAddr(r), y); err != nil {
			panic(err)
		}
		res.NNZ += uint64(s.nnzPerRow)
		res.YSum += y
	}

	return cpu.FuncStream(func() (cpu.Op, bool) {
		for pending.Empty() {
			if row >= s.rows {
				return cpu.Op{}, false
			}
			emitRow(row)
			row++
		}
		return pending.Pop()
	}), nil
}

// Reference computes the expected YSum in plain Go for verification.
func (s *SpMV) Reference() uint64 {
	var sum uint64
	for r := 0; r < s.rows; r++ {
		var y uint64
		for i := 0; i < s.nnzPerRow; i++ {
			k := r*s.nnzPerRow + i
			y += uint64(1+k%17) * uint64(3*int(s.colIdx[k])+1)
		}
		sum += y
	}
	return sum
}
