package stress

import (
	"testing"

	"gsdram/internal/runner"
)

// countIndexed reports how many gatherv/scatterv ops a program carries.
func countIndexed(p Program) (gathers, scatters int) {
	for _, op := range p.Ops {
		switch op.Kind {
		case OpGatherV:
			gathers++
		case OpScatterV:
			scatters++
		}
	}
	return gathers, scatters
}

// TestIndexedGeneratorEmitsBothKinds checks the indexed generator
// actually produces both op kinds and all vector flavours reach real
// programs (statistically, over a seed range).
func TestIndexedGeneratorEmitsBothKinds(t *testing.T) {
	var gathers, scatters int
	for _, seed := range runner.Seeds(1, 20) {
		g, s := countIndexed(GenerateWith(seed, GenConfig{Indexed: true}))
		gathers += g
		scatters += s
	}
	if gathers == 0 || scatters == 0 {
		t.Fatalf("20 indexed programs produced %d gathervs and %d scattervs, want both > 0", gathers, scatters)
	}
	// The zero config must not emit indexed ops (golden determinism).
	for _, seed := range runner.Seeds(1, 20) {
		if g, s := countIndexed(Generate(seed)); g != 0 || s != 0 {
			t.Fatalf("seed %d: zero-config program has indexed ops", seed)
		}
	}
}

// TestIndexedNoDivergence runs indexed programs through the cycle-level
// oracle on both core paths. Any divergence is a real bug in the
// coalescer, the indexed memsys path, or the golden model.
func TestIndexedNoDivergence(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	for _, seed := range runner.Seeds(201, n) {
		p := GenerateWith(seed, GenConfig{Indexed: true})
		for _, noInline := range []bool{false, true} {
			res, err := Run(p, Options{NoInline: noInline})
			if err != nil {
				t.Fatalf("seed %d (noinline=%v): %v", seed, noInline, err)
			}
			if res.Div != nil {
				t.Fatalf("seed %d diverged (noinline=%v): %s\n%s", seed, noInline, res.Div, p)
			}
		}
	}
}

// TestIndexedFunctionalCrossCheck runs indexed programs through the
// fast-forward path: WarmAccessV must leave cache and memory state
// identical to the golden model's literal per-element walk.
func TestIndexedFunctionalCrossCheck(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 10
	}
	for _, seed := range runner.Seeds(301, n) {
		p := GenerateWith(seed, GenConfig{Indexed: true})
		res, instrs, err := RunFunctional(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Div != nil {
			t.Fatalf("seed %d: functional run diverged: %v\n%s", seed, res.Div, p)
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

// TestIndexedParallelWorkersDeterministic re-runs the same indexed seeds
// serially and under an 8-worker pool; every recorded gatherv value must
// be bit-identical (the acceptance invariant).
func TestIndexedParallelWorkersDeterministic(t *testing.T) {
	seeds := runner.Seeds(401, 8)
	gen := func(s uint64) Program { return GenerateWith(s, GenConfig{Indexed: true}) }
	serial := make([]*Result, len(seeds))
	for i, s := range seeds {
		res, err := Run(gen(s), Options{})
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	parallel := make([]*Result, len(seeds))
	pool := runner.Pool{Workers: 8}
	if err := pool.Run(len(seeds), func(i int) error {
		res, err := Run(gen(seeds[i]), Options{})
		parallel[i] = res
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		a, b := serial[i], parallel[i]
		if (a.Div == nil) != (b.Div == nil) {
			t.Fatalf("seed %d: serial div %v, parallel div %v", seeds[i], a.Div, b.Div)
		}
		for j := range a.Records {
			ra, rb := a.Records[j], b.Records[j]
			if len(ra.Vals) != len(rb.Vals) {
				t.Fatalf("seed %d op %d: value counts differ", seeds[i], j)
			}
			for k := range ra.Vals {
				if ra.Vals[k] != rb.Vals[k] {
					t.Fatalf("seed %d op %d val %d: %#x vs %#x", seeds[i], j, k, ra.Vals[k], rb.Vals[k])
				}
			}
		}
	}
}
