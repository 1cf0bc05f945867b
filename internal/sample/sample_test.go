package sample_test

import (
	"math"
	"reflect"
	"testing"

	"gsdram/internal/cpu"
	"gsdram/internal/imdb"
	"gsdram/internal/machine"
	"gsdram/internal/memsys"
	"gsdram/internal/sample"
	"gsdram/internal/sim"
)

const (
	testTuples = 4096
	testTxns   = 3000
	testSeed   = 7
)

var testMix = imdb.TxnMix{RO: 2, WO: 1}

// testTarget builds the canonical test rig: a GS-DRAM table and a
// bounded transaction stream on a single-core detailed hierarchy.
func testTarget(t *testing.T) (sample.Target, *imdb.TxnResult) {
	t.Helper()
	mach, err := machine.Default()
	if err != nil {
		t.Fatal(err)
	}
	db, err := imdb.New(mach, imdb.GSStore, testTuples)
	if err != nil {
		t.Fatal(err)
	}
	q := &sim.EventQueue{}
	mem, err := memsys.New(memsys.DefaultConfig(1), q)
	if err != nil {
		t.Fatal(err)
	}
	var tr imdb.TxnResult
	s, err := db.TransactionStream(testMix, testTxns, testSeed, &tr)
	if err != nil {
		t.Fatal(err)
	}
	return sample.Target{Q: q, Mem: mem, Stream: s}, &tr
}

func testConfig() sample.Config {
	return sample.Config{Interval: 8192, Warmup: 512, Measure: 512, Seed: 99}
}

// TestDeterministicEstimate: the same (config, seed) pair must produce a
// bit-identical estimate — samples, CI, extrapolation — on fresh rigs,
// and the sampled run must consume the whole program (every transaction
// completes, because fast-forward executes it functionally).
func TestDeterministicEstimate(t *testing.T) {
	tgt1, tr1 := testTarget(t)
	res1, err := sample.Run(testConfig(), tgt1)
	if err != nil {
		t.Fatal(err)
	}
	tgt2, tr2 := testTarget(t)
	res2, err := sample.Run(testConfig(), tgt2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("same config+seed produced different estimates:\n%+v\n%+v", res1, res2)
	}
	if tr1.Completed != testTxns || tr2.Completed != testTxns {
		t.Fatalf("sampled runs completed %d/%d transactions, want %d", tr1.Completed, tr2.Completed, testTxns)
	}
	if tr1.Checksum != tr2.Checksum {
		t.Fatalf("checksums differ: %#x vs %#x", tr1.Checksum, tr2.Checksum)
	}
	if res1.Windows < 2 {
		t.Fatalf("expected multiple measurement windows, got %d", res1.Windows)
	}
	if res1.Cycles == 0 || res1.CPI <= 0 {
		t.Fatalf("degenerate estimate: %+v", res1)
	}
}

// TestSeedMovesWindows: a different sampling seed must place windows
// differently (the placement is seed-derived, not fixed).
func TestSeedMovesWindows(t *testing.T) {
	tgt1, _ := testTarget(t)
	cfg := testConfig()
	res1, err := sample.Run(cfg, tgt1)
	if err != nil {
		t.Fatal(err)
	}
	tgt2, _ := testTarget(t)
	cfg.Seed = 12345
	res2, err := sample.Run(cfg, tgt2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(res1.CPISamples, res2.CPISamples) {
		t.Fatalf("different sampling seeds produced identical window samples")
	}
	// Both seeds estimate the same program: the two estimates must agree
	// loosely even at this tiny scale.
	if rel := math.Abs(res1.CPI-res2.CPI) / res1.CPI; rel > 0.25 {
		t.Fatalf("estimates across seeds diverge by %.1f%%: %v vs %v", rel*100, res1.CPI, res2.CPI)
	}
}

// TestAccuracyAgainstDetailed compares the sampled estimate against the
// full cycle-accurate run of the same program. The tolerance is loose
// because the test scale is tiny (a few dozen windows over 100k
// instructions); sample-validate gates the tight bound at benchmark
// scale.
func TestAccuracyAgainstDetailed(t *testing.T) {
	tgt, _ := testTarget(t)
	res, err := sample.Run(testConfig(), tgt)
	if err != nil {
		t.Fatal(err)
	}

	// Detailed run of the identical program.
	dt, dtr := testTarget(t)
	core := cpu.New(0, dt.Q, dt.Mem, dt.Stream, nil)
	core.Start(0)
	dt.Q.Run()
	cs := core.Stats()
	if !cs.Finished || dtr.Completed != testTxns {
		t.Fatalf("detailed run did not finish: %+v", cs)
	}
	if cs.Instructions != res.Instructions {
		t.Fatalf("instruction counts diverge: sampled %d, detailed %d", res.Instructions, cs.Instructions)
	}
	det := float64(cs.FinishCycle)
	rel := math.Abs(float64(res.Cycles)-det) / det
	if rel > 0.20 {
		t.Fatalf("sampled estimate off by %.1f%%: %d vs detailed %d", rel*100, res.Cycles, uint64(det))
	}
	t.Logf("sampled %d vs detailed %d cycles (%.2f%% error, CI ±%.2f%%, %d windows, %.1f%% detailed)",
		res.Cycles, uint64(det), rel*100, res.RelCI()*100, res.Windows, res.SampledFraction()*100)
}

// TestValidateRejectsOverflowingWindow: the window must fit inside the
// interval even when warmup + measure does not fit in a uint64, where
// the sum would wrap to a small number.
func TestValidateRejectsOverflowingWindow(t *testing.T) {
	for _, c := range []sample.Config{
		{Interval: 16384, Warmup: math.MaxUint64, Measure: 1024},
		{Interval: 16384, Warmup: 512, Measure: math.MaxUint64},
		{Interval: 16384, Warmup: 15360, Measure: 1024}, // exactly fills it
		{Interval: 16384, Warmup: 512, Measure: 0},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
	if err := (sample.Config{Interval: 16384, Warmup: 15359, Measure: 1024}).Validate(); err != nil {
		t.Errorf("a window one instruction short of the interval rejected: %v", err)
	}
}
