package stress

import "testing"

// TestFunctionalCrossCheck diff-checks the sampled-simulation
// fast-forward path (fastsim.Functional over memsys.WarmAccess) against
// the golden model on seeded random programs: every loaded value and
// gather index, the final DRAM chip image, and the full cache-resident
// state must match, and the functional instruction count must equal what
// the cycle-level cores retire for the same program (one instruction per
// memory op plus the compute gaps).
func TestFunctionalCrossCheck(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		p := Generate(seed)
		res, instrs, err := RunFunctional(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Div != nil {
			t.Fatalf("seed %d: functional run diverged from golden model: %v\n%s", seed, res.Div, p)
		}
		want := uint64(0)
		for _, op := range p.Ops {
			want += uint64(op.Gap) + 1
		}
		if instrs != want {
			t.Fatalf("seed %d: functional retired %d instructions, program has %d", seed, instrs, want)
		}
	}
}
