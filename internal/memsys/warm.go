package memsys

import (
	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
)

// WarmAccess is the functional (zero-time) twin of Access, used by the
// sampled-simulation fast-forward (internal/sample, DESIGN.md §5.7) to
// keep the long-lived microarchitectural state — cache tags, LRU order,
// the pattern-coherence invariants, the prefetcher and promotion tables
// — evolving while no events run.
//
// It mirrors every state transition of the detailed path except the ones
// that consume simulated time or produce traffic: there is no MSHR, no
// controller enqueue, and no event. Writebacks degenerate to tag cleans
// because caches model tags only (the data already lives in the
// machine). Counters are not advanced (cache.Warm* variants), so the
// statistics the measurement windows difference reflect detailed
// execution only.
func (s *System) WarmAccess(a Access) {
	// Mirror the transparent pattern promotion: the detector must keep
	// training through fast-forward, and promoted loads must warm the
	// gathered line the detailed path would touch.
	if s.cfg.AutoPattern && !a.Write && a.Pattern == gsdram.DefaultPattern &&
		a.Shuffled && a.AltPattern != gsdram.DefaultPattern {
		if ws, ok := s.auto.Observe(a.PC^uint64(a.Core)<<56, a.Addr); ok {
			if patt, err := s.cfg.GS.StridePattern(ws); err == nil && patt == a.AltPattern {
				a.Addr = s.gatherLine(a.Addr, patt)
				a.Pattern = patt
			}
		}
	}

	line := s.lineOf(a.Addr)

	if a.Write && a.Shuffled {
		// Consecutive stores to one line (a transaction writing several
		// fields of one tuple) repeat an invalidation that the first
		// store already made vacuous; the memo skips the redundant
		// overlap probes (see warmInvMemo).
		droppable := a.Pattern == gsdram.DefaultPattern && a.AltPattern != gsdram.DefaultPattern
		if !(droppable && s.warmInvMemoOK && s.warmInvMemo == line && s.warmInvMemoPatt == a.AltPattern) {
			s.warmOverlapDrop(line, a, true)
			if droppable {
				s.warmInvMemo, s.warmInvMemoPatt, s.warmInvMemoOK = line, a.AltPattern, true
			}
		}
	}

	if s.l1[a.Core].WarmLookup(line, a.Pattern, a.Write) {
		return
	}

	// A dirty copy in another core's L1 migrates to the L2, as in
	// probeOtherL1s.
	for i, l1 := range s.l1 {
		if i == a.Core {
			continue
		}
		if present, dirty := l1.Probe(line, a.Pattern); present && dirty {
			l1.WarmInvalidate(line, a.Pattern)
			s.warmFillL2(line, a.Pattern, true)
		}
	}

	if s.cfg.EnablePrefetch && !a.Write {
		s.warmTrain(a, line)
	}
	if s.l2.WarmLookup(line, a.Pattern, false) {
		if s.prefetched.Len() != 0 {
			s.prefetched.Del(s.lineKey(line, a.Pattern))
		}
		s.warmFillL1(a.Core, line, a.Pattern, a.Write)
		return
	}

	// Miss: the detailed path would flush dirty other-pattern overlaps
	// before the fetch; in the tag-only model that is a clean. The L2
	// fill skips the presence scan — the lookup above just missed and
	// nothing fills the L2 in between.
	if a.Shuffled {
		s.warmOverlapDrop(line, a, false)
	}
	if a.Pattern != gsdram.DefaultPattern {
		s.warmInvMemoOK = false
	}
	if ev, has := s.l2.WarmFillNew(line, a.Pattern, false); has && s.prefetched.Len() != 0 {
		s.prefetched.Del(s.lineKey(ev.Addr, ev.Pattern))
	}
	s.warmFillL1(a.Core, line, a.Pattern, a.Write)
}

// warmTrain mirrors train: the prefetcher's table advances identically,
// and candidate lines are warmed straight into the L2 (the detailed path
// would fetch them through the controller).
func (s *System) warmTrain(a Access, line addrmap.Addr) {
	pc := a.PC ^ uint64(a.Core)<<56
	s.pfBuf = s.pf.Observe(s.pfBuf[:0], pc, line, a.Pattern)
	for _, cand := range s.pfBuf {
		cl := s.lineOf(cand.Addr)
		if present, _ := s.l2.Probe(cl, cand.Pattern); present {
			continue
		}
		if uint64(cl) >= s.cfg.Mem.Spec.Capacity() {
			continue
		}
		s.warmFillL2(cl, cand.Pattern, false)
		s.prefetched.Put(s.lineKey(cl, cand.Pattern), struct{}{})
	}
}

// warmFillL1 is fillL1 with writebacks reduced to L2 fills. Every call
// site follows an L1 miss on the same (line, pattern) for this core, so
// the fill skips the presence scan.
func (s *System) warmFillL1(core int, line addrmap.Addr, p gsdram.Pattern, dirty bool) {
	if p != gsdram.DefaultPattern {
		s.warmInvMemoOK = false
	}
	if ev, has := s.l1[core].WarmFillNew(line, p, dirty); has && ev.Dirty {
		s.warmFillL2(ev.Addr, ev.Pattern, true)
	}
}

// warmFillL2 is fillL2 without the controller-side writeback: the
// victim's dirtiness evaporates because the data is already in the
// machine. Unlike the direct miss-path fill, callers cannot guarantee
// the line is absent (an L1 victim may still sit in the L2), so this
// keeps WarmFill's merge semantics.
func (s *System) warmFillL2(line addrmap.Addr, p gsdram.Pattern, dirty bool) {
	if p != gsdram.DefaultPattern {
		s.warmInvMemoOK = false
	}
	ev, has := s.l2.WarmFill(line, p, dirty)
	if has && s.prefetched.Len() != 0 {
		s.prefetched.Del(s.lineKey(ev.Addr, ev.Pattern))
	}
}

// warmOverlapDrop applies the §4.1 coherence rules functionally:
// invalidate (stores) or clean (pre-fetch flush) the other-pattern lines
// overlapping the access.
func (s *System) warmOverlapDrop(line addrmap.Addr, a Access, invalidate bool) {
	// No presence probe: WarmInvalidate and CleanLine already no-op on
	// absent lines, and the probe would repeat their internal find.
	addrs, other := s.overlapLines(line, a)
	for _, oa := range addrs {
		for _, c := range s.allCaches() {
			if invalidate {
				c.WarmInvalidate(oa, other)
			} else {
				c.CleanLine(oa, other)
			}
		}
	}
}
