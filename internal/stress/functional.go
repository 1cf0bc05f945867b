package stress

import (
	"gsdram/internal/cpu"
	"gsdram/internal/fastsim"
	"gsdram/internal/rig"
)

// RunFunctional executes a program through the functional fast-forward
// path — fastsim.Functional dispatching every memory op to
// memsys.WarmAccess, data movement performed architecturally by the
// machine at op generation, zero events and zero cycles — and
// diff-checks it against the golden model exactly as the cycle-level run
// does: every loaded value and gather index, the final DRAM chip image,
// and (since both sides execute in plain program order, regardless of
// core count) the full resident-line state of every cache including
// dirty bits. The returned uint64 is the functional retired-instruction
// count, which must match what cpu cores would retire for the same
// program.
func RunFunctional(p Program) (*Result, uint64, error) {
	r, instrs, err := runFunctional(p)
	if err != nil {
		return nil, 0, err
	}
	l1, l2 := r.sys.Mem().SnapshotCaches()
	if r.res.Div, err = r.verify(l1, l2, true); err != nil {
		return nil, 0, err
	}
	return r.res, instrs, nil
}

// runFunctional executes p on the functional path and returns the
// finished, not yet verified run with its retired-instruction count.
func runFunctional(p Program) (*run, uint64, error) {
	r, err := newRun(p, rig.Options{})
	if err != nil {
		return nil, 0, err
	}
	f := fastsim.NewFunctional(r.sys.Mem())
	for gi, op := range p.Ops {
		mop, err := r.exec(gi)
		if err != nil {
			return nil, 0, err
		}
		if op.Gap > 0 {
			f.Exec(op.Core, cpu.Compute(op.Gap))
		}
		f.Exec(op.Core, mop)
	}
	return r, f.Instructions(), nil
}
