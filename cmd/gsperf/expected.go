package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"
)

// expectedJSON holds the committed result digests and the detailed truth
// of the sampled workload, per seed. Regenerate it with -update, and only
// in a change that is meant to alter simulated results.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// expectedSeeds are the seeds -update records: the default seed and a
// held-out one.
var expectedSeeds = []uint64{42, 1}

// expected is the decoded expected.json.
type expected struct {
	Seeds map[string]seedExpected `json:"seeds"`
}

type seedExpected struct {
	// Digests maps workload → operation → result digest.
	Digests map[string]map[string]string `json:"digests"`
	// DetailedCycles maps each sampled run (exp/layout/index) to its
	// cycles on the detailed path.
	DetailedCycles map[string]uint64 `json:"detailed_cycles"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return &e, nil
}

// digests returns the committed digests of a workload at the run's seed,
// or nil when the seed (or the reduced test scale) has none.
func (e *expected) digests(o options, workload string) map[string]string {
	if o.quick {
		return nil
	}
	return e.Seeds[strconv.FormatUint(o.seed, 10)].Digests[workload]
}

// truth returns the detailed cycles of the sampled runs at the run's
// seed, or nil.
func (e *expected) truth(o options) map[string]uint64 {
	if o.quick {
		return nil
	}
	return e.Seeds[strconv.FormatUint(o.seed, 10)].DetailedCycles
}

// updateExpected runs one pass of every workload and the detailed twin of
// the sampled workload at each expected seed, and writes their digests
// and cycles to path.
func updateExpected(path string, workers int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	out := expected{Seeds: map[string]seedExpected{}}
	for _, seed := range expectedSeeds {
		r := &launcher{o: options{seed: seed, workers: workers}, exe: exe, began: time.Now()}
		se := seedExpected{Digests: map[string]map[string]string{}}
		for _, w := range workloads {
			c, err := r.run(w, modePass)
			if err != nil {
				return err
			}
			if c.rep.Failed > 0 {
				return fmt.Errorf("seed %d: %s failed: %v", seed, w.name, c.rep.Errors)
			}
			if len(c.rep.Digests) > 0 { // stress checks itself against the golden model
				se.Digests[w.name] = c.rep.Digests
			}
		}
		c, err := r.run(workload{name: "sampled"}, modeTruth)
		if err != nil {
			return err
		}
		if c.rep.Failed > 0 {
			return fmt.Errorf("seed %d: detailed truth failed: %v", seed, c.rep.Errors)
		}
		se.DetailedCycles = c.rep.RunCycles
		out.Seeds[strconv.FormatUint(seed, 10)] = se
		fmt.Fprintf(os.Stderr, "gsperf: recorded seed %d\n", seed)
	}
	return writeJSONFile(path, out)
}
