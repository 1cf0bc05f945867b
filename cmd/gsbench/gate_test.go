package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// gateDoc builds a minimal -json document with one fig9 run.
func gateDoc(cycles uint64, wallNS int64) string {
	return `{
  "manifest": {"seed": 42, "workers": 1},
  "experiments": [
    {"experiment": "fig9", "wall_ns": ` + itoa64(wallNS) + `,
     "telemetry": [{"label": "fig9/GS-DRAM/pure-q", "end_cycle": ` + utoa64(cycles) + `, "metrics": {}}]}
  ]
}`
}

func itoa64(v int64) string  { return strconv.FormatInt(v, 10) }
func utoa64(v uint64) string { return strconv.FormatUint(v, 10) }

func writeGateFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseGateArgs(t *testing.T) {
	ga, err := parseGateArgs([]string{"old.json", "new.json", "-tol=2.5"})
	if err != nil {
		t.Fatal(err)
	}
	if ga.old != "old.json" || ga.new != "new.json" || ga.tol != 2.5 {
		t.Fatalf("parsed %+v", ga)
	}
	if _, err := parseGateArgs([]string{"one.json"}); err == nil {
		t.Fatal("want error for one positional")
	}
	if _, err := parseGateArgs([]string{"-bogus", "a", "b"}); err == nil {
		t.Fatal("want error for unknown flag")
	}
	// bench-gate gates simulated results only; wall time has no flag.
	if _, err := parseGateArgs([]string{"a", "b", "-wall-tol", "0"}); err == nil || !strings.Contains(err.Error(), "unknown flag -wall-tol") {
		t.Fatalf("-wall-tol: got %v, want an unknown-flag error", err)
	}
	if _, err := parseGateArgs([]string{"a", "b", "-tol"}); err == nil {
		t.Fatal("want error for dangling -tol")
	}
	// Defaults.
	ga, err = parseGateArgs([]string{"a", "b"})
	if err != nil || ga.tol != 5 {
		t.Fatalf("defaults: %+v, %v", ga, err)
	}
}

func TestBenchGatePassAndFail(t *testing.T) {
	old := writeGateFile(t, "old.json", gateDoc(100_000, 1_000_000))

	// Within tolerance (+4% cycles) passes.
	pass := writeGateFile(t, "pass.json", gateDoc(104_000, 1_500_000))
	var out strings.Builder
	if err := benchGate([]string{old, pass, "-tol", "5"}, &out); err != nil {
		t.Fatalf("within-tolerance gate failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Fatalf("no OK line:\n%s", out.String())
	}

	// Beyond tolerance (+10% cycles) fails.
	fail := writeGateFile(t, "fail.json", gateDoc(110_000, 1_000_000))
	out.Reset()
	if err := benchGate([]string{old, fail, "-tol", "5"}, &out); err == nil {
		t.Fatalf("regressed run passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL fig9") {
		t.Fatalf("no FAIL line:\n%s", out.String())
	}

	// Faster is always fine.
	faster := writeGateFile(t, "faster.json", gateDoc(50_000, 500_000))
	out.Reset()
	if err := benchGate([]string{old, faster, "-tol", "0"}, &out); err != nil {
		t.Fatalf("improvement failed the gate: %v", err)
	}

	// Same cycles at 4x the wall time passes: wall time is not gated.
	slow := writeGateFile(t, "slow.json", gateDoc(100_000, 4_000_000))
	out.Reset()
	if err := benchGate([]string{old, slow, "-tol", "0"}, &out); err != nil {
		t.Fatalf("wall time failed the gate: %v\n%s", err, out.String())
	}
}

func TestBenchGateMissingRun(t *testing.T) {
	old := writeGateFile(t, "old.json", gateDoc(100_000, 1_000_000))
	empty := writeGateFile(t, "empty.json", `{"manifest": {}, "experiments": []}`)
	var out strings.Builder
	if err := benchGate([]string{old, empty}, &out); err == nil {
		t.Fatal("missing run passed the gate")
	}
	if !strings.Contains(out.String(), "missing") {
		t.Fatalf("no missing-run report:\n%s", out.String())
	}
	// An old file with no telemetry at all is an error, not a pass.
	if err := benchGate([]string{empty, old}, &out); err == nil {
		t.Fatal("telemetry-free baseline passed the gate")
	}
}

// TestBenchGateSeesCoreCycles: the epoch sampler rounds end_cycle up to
// its next tick, so a run that got slower can keep its end_cycle. Its
// cores' busy cycles (instructions + memory stall cycles) still move,
// and the gate compares them too.
func TestBenchGateSeesCoreCycles(t *testing.T) {
	doc := func(stall int) string {
		return strings.Replace(gateDoc(100_000, 1_000_000), `"metrics": {}`,
			`"metrics": {"core.0.instructions": 500, "core.0.mem_stall_cycles": `+strconv.Itoa(stall)+`}`, 1)
	}
	old := writeGateFile(t, "old.json", doc(40_000))
	var out strings.Builder
	if err := benchGate([]string{old, old, "-tol", "0"}, &out); err != nil {
		t.Fatalf("identical core counters failed the gate: %v\n%s", err, out.String())
	}
	slower := writeGateFile(t, "slower.json", doc(40_001))
	out.Reset()
	if err := benchGate([]string{old, slower, "-tol", "0"}, &out); err == nil {
		t.Fatalf("a core slower under an equal end_cycle passed the gate:\n%s", out.String())
	}
	if want := "FAIL fig9 · fig9/GS-DRAM/pure-q: core 0 busy cycles 40501 vs baseline 40500"; !strings.Contains(out.String(), want) {
		t.Fatalf("no %q line:\n%s", want, out.String())
	}
}
