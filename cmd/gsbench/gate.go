package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// gateArgs are the parsed bench-gate arguments. The flags are scanned
// manually so they can appear before or after the positional files
// (Go's flag package stops at the first positional argument).
type gateArgs struct {
	old, new string
	tol      float64 // simulated-cycle tolerance, percent
	explain  bool    // run `gsbench explain` on the pair when the gate fails
}

// parseGateArgs scans args for -tol (either "-tol 5" or "-tol=5"), the
// boolean -explain, and two positional file names.
func parseGateArgs(args []string) (gateArgs, error) {
	ga := gateArgs{tol: 5}
	var files []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, val, hasVal := a, "", false
		if eq := strings.IndexByte(a, '='); eq >= 0 && strings.HasPrefix(a, "-") {
			name, val, hasVal = a[:eq], a[eq+1:], true
		}
		switch strings.TrimLeft(name, "-") {
		case "explain":
			if !strings.HasPrefix(a, "-") {
				files = append(files, a)
				continue
			}
			if hasVal {
				b, err := strconv.ParseBool(val)
				if err != nil {
					return ga, fmt.Errorf("bench-gate: bad %s value %q", name, val)
				}
				ga.explain = b
			} else {
				ga.explain = true
			}
		case "tol":
			if !strings.HasPrefix(a, "-") {
				files = append(files, a)
				continue
			}
			if !hasVal {
				i++
				if i >= len(args) {
					return ga, fmt.Errorf("bench-gate: %s needs a value", a)
				}
				val = args[i]
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 {
				return ga, fmt.Errorf("bench-gate: bad %s value %q", name, val)
			}
			ga.tol = f
		default:
			if strings.HasPrefix(a, "-") {
				return ga, fmt.Errorf("bench-gate: unknown flag %s (usage: gsbench bench-gate [-tol PCT] [-explain] OLD.json NEW.json)", a)
			}
			files = append(files, a)
		}
	}
	if len(files) != 2 {
		return ga, fmt.Errorf("bench-gate: want exactly 2 files, got %d (usage: gsbench bench-gate [-tol PCT] [-explain] OLD.json NEW.json)", len(files))
	}
	ga.old, ga.new = files[0], files[1]
	return ga, nil
}

// benchGate implements `gsbench bench-gate OLD.json NEW.json`: compare
// NEW's end_cycle and core busy cycles run by run against the baseline
// OLD (typically the committed BENCH_seed.json) and fail when any rises
// beyond -tol percent. Simulated cycles are deterministic, so a small
// tolerance only absorbs intentional modelling changes. Host cost is
// not gated here: wall time is one noisy sample per experiment,
// and gsperf compare gates it from repeated runs. A run present in OLD
// but missing from NEW also fails: coverage loss is a regression.
func benchGate(args []string, w io.Writer) error {
	ga, err := parseGateArgs(args)
	if err != nil {
		return err
	}
	oldF, err := loadDiffFile(ga.old)
	if err != nil {
		return err
	}
	newF, err := loadDiffFile(ga.new)
	if err != nil {
		return err
	}
	return gateFiles(w, ga, oldF, newF)
}

// busyCycles returns each core's instructions plus memory stall cycles,
// nil for a run without core counters. A core starts at cycle 0 and
// finishes at exactly this sum, while end_cycle is rounded up to the
// epoch sampler's next tick and hides any change smaller than an epoch.
func busyCycles(metrics map[string]json.RawMessage) (busy []uint64) {
	for c := 0; ; c++ {
		var instr, stall uint64
		if json.Unmarshal(metrics[fmt.Sprintf("core.%d.instructions", c)], &instr) != nil ||
			json.Unmarshal(metrics[fmt.Sprintf("core.%d.mem_stall_cycles", c)], &stall) != nil {
			return busy
		}
		busy = append(busy, instr+stall)
	}
}

// gateFiles runs the comparison; split from benchGate for testing.
func gateFiles(w io.Writer, ga gateArgs, oldF, newF *diffFile) error {
	type runKey struct{ exp, label string }
	newRuns := map[runKey]*diffTelemetry{}
	for _, e := range newF.Experiments {
		for i := range e.Telemetry {
			newRuns[runKey{e.Experiment, e.Telemetry[i].Label}] = &e.Telemetry[i]
		}
	}

	checked, regressions := 0, 0
	for _, e := range oldF.Experiments {
		for _, t := range e.Telemetry {
			k := runKey{e.Experiment, t.Label}
			nt, ok := newRuns[k]
			if !ok {
				fmt.Fprintf(w, "FAIL %s · %s: run missing from %s\n", k.exp, k.label, ga.new)
				regressions++
				continue
			}
			checked++
			gate := func(what string, oc, nc uint64) {
				if float64(nc) > float64(oc)*(1+ga.tol/100) {
					fmt.Fprintf(w, "FAIL %s · %s: %s %d vs baseline %d (+%.2f%% > %.2f%%)\n",
						k.exp, k.label, what, nc, oc, 100*(float64(nc)/float64(oc)-1), ga.tol)
					regressions++
				}
			}
			gate("end_cycle", t.EndCycle, nt.EndCycle)
			ob, nb := busyCycles(t.Metrics), busyCycles(nt.Metrics)
			for c := range min(len(ob), len(nb)) {
				gate(fmt.Sprintf("core %d busy cycles", c), ob[c], nb[c])
			}
		}
	}
	if checked == 0 && regressions == 0 {
		return fmt.Errorf("bench-gate: %s has no telemetry runs to gate on (produce it with -json)", ga.old)
	}
	if regressions > 0 {
		if ga.explain {
			// Best-effort diagnosis of the failure: the files are already
			// loaded, so run the explain decomposition over them before
			// returning the gate error.
			if verdict, err := explainDocs(ga.old, ga.new, oldF, newF); err != nil {
				fmt.Fprintf(w, "bench-gate: explain unavailable: %v\n", err)
			} else {
				fmt.Fprintln(w)
				renderExplain(w, verdict, 5)
			}
		}
		return fmt.Errorf("bench-gate: %d regression(s) against %s", regressions, ga.old)
	}
	fmt.Fprintf(w, "bench-gate: OK — %d runs within %.2f%% of %s\n", checked, ga.tol, ga.old)
	return nil
}
