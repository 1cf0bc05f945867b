package fastsim

import (
	"gsdram/internal/cpu"
	"gsdram/internal/memsys"
)

// Functional executes instruction streams architecturally, with zero
// simulated time, against a *detailed* memory hierarchy: every memory op
// becomes a memsys.WarmAccess, which runs the detailed access path
// itself, so cache tags, LRU order, the pattern coherence invariants and
// the prefetcher/promotion tables keep evolving exactly as detailed
// execution moves them — while no events run and no cycles pass. It is
// the fast-forward engine of sampled simulation (internal/sample):
// between measurement windows the op stream flows through Exec instead
// of a cpu.Core.
//
// Instruction accounting matches cpu.Core exactly — a compute block of n
// cycles retires n instructions, every memory op retires one — so CPI
// extrapolation over the full instruction count is consistent whether an
// instruction was fast-forwarded or measured.
type Functional struct {
	mem    *memsys.System
	instrs uint64
}

// NewFunctional builds a functional executor over a detailed hierarchy.
func NewFunctional(mem *memsys.System) *Functional {
	return &Functional{mem: mem}
}

// Exec retires one op of the given core's stream.
func (f *Functional) Exec(core int, op cpu.Op) {
	switch op.Kind {
	case cpu.OpCompute:
		f.instrs += uint64(op.Cycles)
	case cpu.OpLoad, cpu.OpStore:
		f.instrs++
		f.mem.WarmAccess(memsys.Access{
			Core:       core,
			Addr:       op.Addr,
			Pattern:    op.Pattern,
			Write:      op.Kind == cpu.OpStore,
			PC:         op.PC,
			Shuffled:   op.Shuffled,
			AltPattern: op.AltPattern,
		})
	case cpu.OpGatherV, cpu.OpScatterV:
		f.instrs++
		f.mem.WarmAccessV(memsys.VAccess{
			Core:       core,
			Addrs:      op.Addrs,
			Write:      op.Kind == cpu.OpScatterV,
			PC:         op.PC,
			Shuffled:   op.Shuffled,
			AltPattern: op.AltPattern,
		})
	}
}

// Instructions returns the retired-instruction count.
func (f *Functional) Instructions() uint64 { return f.instrs }
