package stress

import (
	"testing"

	"gsdram/internal/runner"
)

// TestNoDivergence runs many seeded random programs through the oracle
// on the inline (event-skipping) path. Any divergence is a real bug in
// either the simulator or the golden model.
func TestNoDivergence(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 15
	}
	for _, seed := range runner.Seeds(1, n) {
		p := Generate(seed)
		res, err := Run(p, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Div != nil {
			t.Fatalf("seed %d diverged: %s\n%s", seed, res.Div, p)
		}
	}
}

// TestNoDivergenceNoInline repeats the oracle run with the event-horizon
// fast path disabled: the pure event-driven execution must match the
// golden model too (and, transitively, the inline path).
func TestNoDivergenceNoInline(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 8
	}
	for _, seed := range runner.Seeds(101, n) {
		p := Generate(seed)
		res, err := Run(p, Options{NoInline: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Div != nil {
			t.Fatalf("seed %d diverged (noinline): %s\n%s", seed, res.Div, p)
		}
	}
}

// TestParallelWorkersDeterministic runs the same seed set serially and
// through an 8-worker pool: the per-seed outcomes (including every
// recorded load value) must be identical, because each run is an
// independent rig whose behaviour depends only on its seed.
func TestParallelWorkersDeterministic(t *testing.T) {
	seeds := runner.Seeds(7, 12)
	serial := make([]*Result, len(seeds))
	for i, s := range seeds {
		res, err := Run(Generate(s), Options{})
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	parallel := make([]*Result, len(seeds))
	pool := runner.Pool{Workers: 8}
	if err := pool.Run(len(seeds), func(i int) error {
		res, err := Run(Generate(seeds[i]), Options{})
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
		if len(a.Records) != len(b.Records) {
			t.Fatalf("seed %d: record count differs", seeds[i])
		}
		for j := range a.Records {
			ra, rb := a.Records[j], b.Records[j]
			if ra.Addr != rb.Addr || len(ra.Vals) != len(rb.Vals) {
				t.Fatalf("seed %d op %d: records differ", seeds[i], j)
			}
			for k := range ra.Vals {
				if ra.Vals[k] != rb.Vals[k] {
					t.Fatalf("seed %d op %d val %d: %#x vs %#x", seeds[i], j, k, ra.Vals[k], rb.Vals[k])
				}
			}
		}
	}
}

// TestShrinkPassingProgramIsIdentity checks Shrink returns a passing
// program unchanged with a nil divergence.
func TestShrinkPassingProgramIsIdentity(t *testing.T) {
	p := Generate(3)
	min, div := Shrink(p, Checker(Options{}))
	if div != nil {
		t.Fatalf("unexpected divergence: %s", div)
	}
	if len(min.Ops) != len(p.Ops) || len(min.Regions) != len(p.Regions) {
		t.Fatal("Shrink modified a passing program")
	}
}

// TestGenerateDeterministic checks the generator is a pure function of
// its seed.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(99), Generate(99)
	if a.String() != b.String() {
		t.Fatal("Generate(99) not deterministic")
	}
	if c := Generate(100); c.String() == a.String() {
		t.Fatal("different seeds produced identical programs")
	}
}
