package main

import (
	"strings"
	"testing"
)

// TestStressClosingErrorDeterministic: a run with a planted fault ends
// with the same error at every worker count and on every run — that of
// the lowest-numbered failing program, which the serial run finds
// first — however many other programs the workers reached before they
// stopped.
func TestStressClosingErrorDeterministic(t *testing.T) {
	stressErr := func(workers string) string {
		t.Helper()
		err := stressCmd([]string{"-seed", "1", "-count", "200", "-inject", "shuffle-swap",
			"-shrink=false", "-workers", workers})
		if err == nil {
			t.Fatalf("-workers %s: the planted fault was not caught", workers)
		}
		return err.Error()
	}
	want := stressErr("1")
	if !strings.HasPrefix(want, "stress: program ") || !strings.Contains(want, "diverged") {
		t.Fatalf("closing error %q does not name the diverging program", want)
	}
	for run := 0; run < 8; run++ {
		if got := stressErr("4"); got != want {
			t.Fatalf("run %d with 4 workers ended with\n  %q\nthe serial run with\n  %q", run, got, want)
		}
	}
}
