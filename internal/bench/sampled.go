package bench

import (
	"gsdram/internal/cpu"
	"gsdram/internal/rig"
	"gsdram/internal/sample"
	"gsdram/internal/sim"
)

// SampledEntry pairs one run's label with its sampled estimate; the
// collected entries form the `sampled` section of the JSON output.
type SampledEntry struct {
	Run    string
	Result *sample.Result
}

// sampleConfigFor derives the per-run sampling config for job index j.
// The placement seed mixes the configured seed with the job index so
// every run draws independent window offsets, while remaining a pure
// function of j — worker count cannot perturb it.
func sampleConfigFor(base sample.Config, j int) sample.Config {
	base.Seed ^= (uint64(j) + 1) * 0x9E3779B97F4A7C15
	return base
}

// runSampled executes one stream under interval sampling on a fresh rig
// and synthesizes RunMetrics comparable to run: extrapolated
// cycles and energy from the estimate, memory-side counters from the
// detailed windows (the sampler restores every counter after each
// fast-forward segment).
// Sampled rigs are untelemetered, and the sampler drives its own cores,
// so the rig's fast-path switch does not apply.
//
// Streams supporting a functional shadow overlay (imdb.TxnStream) are
// switched into it: the timing path is tag-only and checksums come out
// identical, so the machine's word path — address decomposition, page
// flags and the cloned module's own word overlay — is pure overhead for
// a sampled run's fast-forwarded field accesses.
func runSampled(sc sample.Config, r *rig.Rig, s cpu.Stream) (RunMetrics, *sample.Result, error) {
	if sh, ok := s.(interface{ EnableShadow() }); ok {
		sh.EnableShadow()
	}
	est, err := sample.Run(sc, sample.Target{Q: r.Queue(), Mem: r.Mem(), Stream: s})
	if err != nil {
		return RunMetrics{}, nil, err
	}
	m := RunMetrics{
		Cycles: est.Cycles,
		CoreStats: []cpu.Stats{{
			Instructions: est.Instructions,
			FinishCycle:  sim.Cycle(est.Cycles),
			Finished:     true,
		}},
		Mem:    r.Mem().Stats(),
		Ctrl:   r.Mem().MemStats(),
		Energy: est.Energy,
	}
	return m, est, nil
}
