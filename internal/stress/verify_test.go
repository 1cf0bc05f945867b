package stress

import (
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/cache"
)

// TestVerifyCatchesBrokenState shows that each of verify's post-run
// checks can fire. Every case starts from a clean finished run of the
// same program, breaks one thing on the simulator side (its memory or
// its cache snapshot), and wants verify's divergence kind with and
// without fullState ("" = no divergence). Dirty bits and the L2 are
// full-state only, so breaking them must go unreported without it.
func TestVerifyCatchesBrokenState(t *testing.T) {
	p := Generate(1)
	cases := []struct {
		name          string
		breakRun      func(r *run, l1 [][]cache.Line, l2 []cache.Line)
		full, partial string
	}{
		{"clean", func(*run, [][]cache.Line, []cache.Line) {}, "", ""},
		{"chip word", func(r *run, _ [][]cache.Line, _ []cache.Line) {
			a := r.bases[0]
			v, err := r.mach.ReadWord(a)
			if err == nil {
				err = r.mach.WriteWord(a, v^1)
			}
			if err != nil {
				t.Fatal(err)
			}
		}, "final-memory", "final-memory"},
		{"missing L1 line", func(_ *run, l1 [][]cache.Line, _ []cache.Line) {
			l1[0] = l1[0][1:]
		}, "cache-state", "cache-state"},
		{"L1 dirty bit", func(_ *run, l1 [][]cache.Line, _ []cache.Line) {
			l1[0][0].Dirty = !l1[0][0].Dirty
		}, "cache-state", ""},
		{"L2 line", func(r *run, _ [][]cache.Line, l2 []cache.Line) {
			l2[0].Addr += addrmap.Addr(r.p.Spec.LineBytes)
		}, "cache-state", ""},
	}
	for _, tc := range cases {
		for _, fullState := range []bool{true, false} {
			r, _, err := runFunctional(p)
			if err != nil {
				t.Fatal(err)
			}
			l1, l2 := r.sys.Mem().SnapshotCaches()
			if len(l1[0]) == 0 || len(l2) == 0 {
				t.Fatalf("program leaves %d lines in L1[0] and %d in the L2; the cases need one of each", len(l1[0]), len(l2))
			}
			tc.breakRun(r, l1, l2)
			div, err := r.verify(l1, l2, fullState)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.partial
			if fullState {
				want = tc.full
			}
			got := ""
			if div != nil {
				got = div.Kind
			}
			if got != want {
				t.Errorf("%s, fullState=%v: verify reported %v, want kind %q", tc.name, fullState, div, want)
			}
		}
	}
}
