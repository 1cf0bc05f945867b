package spec

import (
	"sync"

	"gsdram/internal/bench"
)

// held is the memo fig12 resolves its inputs through: the latest
// untelemetered fig9 and fig10 results this process computed, each
// stored under the canonical encoding of the spec that produced it, so
// every knob (workers, noinline, l2 latency, sampling and fingerprint
// included) is part of the match. It is a cache, not a switch: a hit
// returns exactly what running the input again would compute, and a
// miss runs it. Telemetered batches neither read nor write it, because
// their documents must carry the inputs' own telemetry. Only the fig9
// and fig10 entries write it and only fig12 reads it, so it holds at
// most one result per input experiment.
var held struct {
	sync.Mutex
	m map[string]heldResult // by experiment name
}

// heldResult is one memoised input result and its spec's canonical
// encoding.
type heldResult struct {
	key    string
	result any
}

// hold records an untelemetered result of s, replacing the one held for
// the same experiment. Results are shared with whoever holds them, so
// no consumer may mutate a result.
func hold(s *Spec, opts bench.Options, result any) {
	if opts.Capture != nil {
		return
	}
	key := string(s.Canonical())
	held.Lock()
	defer held.Unlock()
	if held.m == nil {
		held.m = map[string]heldResult{}
	}
	held.m[s.Experiment] = heldResult{key, result}
}

// input resolves one input of the experiment s describes: s with its
// Experiment replaced by e's name. It takes the held result when its key
// matches and otherwise runs e with opts. Only untelemetered results are
// held and the key covers the telemetry knobs, so a telemetered batch
// always runs e and captures the input's runs itself.
func input[T any](s *Spec, opts bench.Options, e entry) (T, error) {
	in := *s
	in.Experiment = e.name
	key := string(in.Canonical())
	held.Lock()
	h, ok := held.m[e.name]
	held.Unlock()
	if ok && h.key == key {
		return h.result.(T), nil
	}
	r, _, _, err := e.run(&in, opts)
	if err != nil {
		var zero T
		return zero, err
	}
	return r.(T), nil
}
