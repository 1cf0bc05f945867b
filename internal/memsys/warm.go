package memsys

import "gsdram/internal/cache"

// WarmAccess is Access for the functional fast-forward of sampled
// simulation (internal/sample, DESIGN.md §5.7). It runs Access itself —
// promotion, the §4.1 coherence rules, the lookups, the cross-core probe,
// prefetcher training, fills and evictions — so the long-lived state
// keeps evolving exactly as detailed execution moves it, but it takes no
// simulated time and makes no traffic: a miss completes in place,
// prefetch candidates fill the L2 directly, and writebacks are dropped
// because caches model tags only (the data already lives in the
// machine). Counters advance as they do for Access; the sampler runs
// each fast-forward segment under Uncounted.
//
// It is not inlined, so its caller's Access arrives in registers and
// Access reads it where WarmAccess spilled it. Inlined, the struct is
// built in one stack slot and block-copied to another, and the copy
// stalls on store forwarding (see Access).
//
//go:noinline
func (s *System) WarmAccess(a Access) {
	s.warm = true
	s.Access(s.q.Now(), &a, nil)
	s.warm = false
}

// WarmAccessV is WarmAccess for AccessV: it applies the indexed
// operation's coherence to every cache and issues no burst.
func (s *System) WarmAccessV(a VAccess) {
	s.warm = true
	s.AccessV(s.q.Now(), a, nil)
	s.warm = false
}

// Uncounted runs fn, a fast-forward segment, and then puts back every
// counter the hierarchy keeps — its own, each cache's, the prefetcher's
// and the promotion detector's — with the latency recorder and the event
// log detached meanwhile, so the counter deltas the measurement windows
// take reflect detailed execution only. Saving and restoring once per
// segment keeps the per-access path free of counting branches.
func (s *System) Uncounted(fn func()) {
	ctr, pf, auto := s.ctr, s.pf.Stats(), s.auto.Stats()
	saved := make([]cache.Counters, len(s.caches))
	for i, c := range s.caches {
		saved[i] = c.SaveCounters()
	}
	lat, log := s.lat, s.cfg.Log
	s.lat, s.cfg.Log = nil, nil
	fn()
	s.lat, s.cfg.Log = lat, log
	s.ctr = ctr
	s.pf.SetStats(pf)
	s.auto.SetStats(auto)
	for i, c := range s.caches {
		c.RestoreCounters(saved[i])
	}
}
