package main

import (
	"fmt"
	"testing"
	"time"

	"gsdram/internal/runner"
	"gsdram/internal/stress"
)

// TestStressClosingErrorDeterministic: a run in which several programs
// diverge ends with the same error at every worker count and on every
// run — that of the lowest-numbered failing program, which the serial
// run finds first — however many other programs the workers reached
// before they stopped. The cycle-level run is a fake that diverges on
// programs 37, 90 and 150 of the seed-1 batch, and that is slowest on
// 37, so that parallel workers tend to reach the later failures first.
func TestStressClosingErrorDeterministic(t *testing.T) {
	seeds := runner.Seeds(1, 200)
	failing := map[uint64]int{seeds[37]: 37, seeds[90]: 90, seeds[150]: 150}
	fake := func(p stress.Program, _ stress.Options) (*stress.Result, error) {
		i, ok := failing[p.Seed]
		if !ok {
			return &stress.Result{}, nil
		}
		if i == 37 {
			time.Sleep(10 * time.Millisecond)
		}
		return &stress.Result{Div: &stress.Divergence{Kind: "load-value", Op: 0, Detail: "fake"}}, nil
	}
	stressErr := func(workers string) string {
		t.Helper()
		err := stressWith([]string{"-seed", "1", "-count", "200", "-shrink=false", "-workers", workers}, fake)
		if err == nil {
			t.Fatalf("-workers %s: no divergence reported", workers)
		}
		return err.Error()
	}
	want := fmt.Sprintf("stress: program 37 (seed %d) diverged: load-value at op 0: fake", seeds[37])
	if got := stressErr("1"); got != want {
		t.Fatalf("the serial run ended with\n  %q\nwant\n  %q", got, want)
	}
	for run := 0; run < 8; run++ {
		if got := stressErr("4"); got != want {
			t.Fatalf("run %d with 4 workers ended with\n  %q\nwant\n  %q", run, got, want)
		}
	}
}
