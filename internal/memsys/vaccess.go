package memsys

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/flight"
	"gsdram/internal/gsdram"
	"gsdram/internal/latency"
	"gsdram/internal/memctrl"
	"gsdram/internal/sim"
)

// VAccess describes one indexed memory operation: a gather (read) or
// scatter (write) over an explicit vector of word-aligned element
// addresses. Unlike the scalar Access path, indexed operations are not
// cached — the coalescer (internal/memctrl) decomposes the vector into
// per-bank/per-row DRAM bursts, using the in-DRAM pattern gather where
// the page's alternate pattern covers the requested words and falling
// back to one default line per column otherwise. Cached copies are
// reconciled first (see the §4.1 extension in AccessV).
type VAccess struct {
	Core  int
	Addrs []addrmap.Addr
	Write bool
	PC    uint64
	// Shuffled / AltPattern carry the §4.1 two-pattern contract of the
	// pages the vector targets, exactly as on Access: patterned bursts
	// are only formed for shuffled pages with a valid non-zero alternate
	// pattern.
	Shuffled   bool
	AltPattern gsdram.Pattern
}

// vop tracks one in-flight indexed gather: the remaining burst count and
// the completion context. Entries are pooled (System.vopFree) and carry
// two persistent closures, so the coalesced hot path does not allocate.
type vop struct {
	remaining int
	core      int
	start     sim.Cycle
	extra     sim.Cycle
	patt      gsdram.Pattern
	onDone    func(now sim.Cycle)
	// lat is the op's request-lifecycle record, shared by all bursts the
	// way GatherAtController donors share their entry's record.
	lat    latency.ReqLat
	bursts []memctrl.Burst
	// fetchFn issues the planned bursts after the L1+L2 pipeline delay;
	// onBurst is the per-burst controller completion.
	fetchFn func(now sim.Cycle)
	onBurst func(now sim.Cycle)
}

// newVop returns a recycled (or fresh) in-flight gather tracker.
func (s *System) newVop() *vop {
	if n := len(s.vopFree); n > 0 {
		v := s.vopFree[n-1]
		s.vopFree = s.vopFree[:n-1]
		return v
	}
	v := &vop{}
	v.fetchFn = func(t sim.Cycle) { s.vfetch(t, v) }
	v.onBurst = func(t sim.Cycle) { s.vburstDone(t, v) }
	return v
}

// recycleVop returns a completed tracker to the free list.
func (s *System) recycleVop(v *vop) {
	v.onDone = nil
	v.bursts = v.bursts[:0]
	s.vopFree = append(s.vopFree, v)
}

// vAlt returns the pattern indexed bursts and coherence may use for this
// access: the page's alternate pattern when it is usable, else the
// default pattern. The gate matches the coalescer's, so the coherence
// walk covers exactly the lines a patterned burst could touch.
func (s *System) vAlt(a VAccess) gsdram.Pattern {
	if a.Shuffled && a.AltPattern != gsdram.DefaultPattern && a.AltPattern <= s.cfg.GS.MaxPattern() {
		return a.AltPattern
	}
	return gsdram.DefaultPattern
}

// AccessV performs one indexed memory operation. The contract mirrors
// Access: scatters (and empty vectors) resolve synchronously, returning
// hit=true and the completion time without scheduling onDone; gathers
// return hit=false and onDone fires when the last burst's fill
// completes. All state mutations happen at call time.
//
// Coherence (§4.1 extended to indexed accesses): the bursts read and
// write DRAM directly, so for every element the at-most-two cached lines
// that can hold its word — its own default line, and on shuffled pages
// the alternate-pattern gathered line — are reconciled in every cache
// first. A gather writes back dirty copies (DRAM becomes current); a
// scatter additionally invalidates them (the cached copies become
// stale).
func (s *System) AccessV(now sim.Cycle, a VAccess, onDone func(now sim.Cycle)) (done sim.Cycle, hit bool) {
	if a.Core < 0 || a.Core >= len(s.l1) {
		panic(fmt.Sprintf("memsys: core %d out of range", a.Core))
	}
	s.ctr.Accesses++
	if a.Write {
		s.ctr.Stores++
		s.ctr.ScattervOps++
	} else {
		s.ctr.Loads++
		s.ctr.GathervOps++
	}
	s.ctr.GathervElems.Add(uint64(len(a.Addrs)))
	if len(a.Addrs) == 0 {
		return now + 1, true
	}

	alt := s.vAlt(a)
	for _, ea := range a.Addrs {
		s.vcohLine(s.lineOf(ea), gsdram.DefaultPattern, a.Write)
		if alt != gsdram.DefaultPattern {
			s.vcohLine(s.gatherLine(ea, alt), alt, a.Write)
		}
	}
	if s.warm {
		return now, true
	}

	bursts, err := s.coal.Plan(a.Addrs, a.Shuffled, alt)
	if err != nil {
		panic(fmt.Sprintf("memsys: indexed access: %v", err))
	}
	s.ctr.GathervBursts.Add(uint64(len(bursts)))
	patt := gsdram.DefaultPattern
	for _, b := range bursts {
		if b.Pattern != gsdram.DefaultPattern {
			s.ctr.GathervPatterned++
			patt = b.Pattern
		} else {
			s.ctr.GathervFallback++
		}
		s.cfg.Log.Burst(now, a.Core, b.Pattern != gsdram.DefaultPattern,
			uint64(b.Line), b.Pattern, len(b.Elems))
	}

	if a.Write {
		// Scatter bursts are posted like writebacks: the core does not
		// wait for DRAM, only for the L1-pipeline dispatch slot.
		for _, b := range bursts {
			req := s.ctrl.NewRequest()
			req.Addr = b.Line
			req.Pattern = b.Pattern
			req.Write = true
			s.ctrl.Enqueue(now, req)
		}
		done = now + s.cfg.L1Latency
		if s.lat != nil && done > now+1 {
			s.lat.ChargeStall(a.Core, latency.StageL1Hit, done-(now+1))
		}
		return done, true
	}

	v := s.newVop()
	v.remaining = len(bursts)
	v.core = a.Core
	v.start = now
	v.extra = 0
	if a.Shuffled {
		v.extra = s.cfg.ShuffleLatency
	}
	v.patt = patt
	v.onDone = onDone
	v.lat = latency.ReqLat{MSHRAlloc: now}
	// Copy only the burst addresses: Elems aliases the coalescer's arena
	// and is dead by the time the fetch fires.
	v.bursts = v.bursts[:0]
	for _, b := range bursts {
		v.bursts = append(v.bursts, memctrl.Burst{Line: b.Line, Pattern: b.Pattern})
	}
	// The bursts leave for the controller after the L1 and L2 tag checks,
	// like a scalar miss.
	s.q.Schedule(now+s.cfg.L1Latency+s.cfg.L2Latency, v.fetchFn)
	return 0, false
}

// vcohLine reconciles one cached line with an indexed burst: dirty
// copies are written back (and cleaned), and for scatters any copy is
// invalidated since DRAM is about to hold newer data.
func (s *System) vcohLine(la addrmap.Addr, p gsdram.Pattern, write bool) {
	for _, c := range s.caches {
		var present, dirty bool
		if write {
			present, dirty = c.Invalidate(la, p)
		} else {
			dirty = c.CleanLine(la, p)
		}
		if dirty {
			s.ctr.OverlapFlushes++
			s.cfg.Log.Coherence(s.q.Now(), flight.KindOverlapFlush, -1, uint64(la), p)
			s.writeback(la, p)
		}
		if present {
			s.ctr.OverlapInvals++
			s.cfg.Log.Coherence(s.q.Now(), flight.KindOverlapInval, -1, uint64(la), p)
		}
	}
}

// vfetch issues the planned bursts of an indexed gather.
func (s *System) vfetch(now sim.Cycle, v *vop) {
	for _, b := range v.bursts {
		s.ctr.DRAMReads++
		req := s.ctrl.NewRequest()
		req.Addr = b.Line
		req.Pattern = b.Pattern
		req.OnComplete = v.onBurst
		if s.lat != nil {
			req.Lat = &v.lat
		}
		s.ctrl.Enqueue(now, req)
	}
}

// vburstDone counts down an indexed gather's bursts; the last one wakes
// the core (after the shuffle latency, when applicable) and records the
// op in the latency attribution like a scalar miss.
func (s *System) vburstDone(now sim.Cycle, v *vop) {
	v.remaining--
	if v.remaining > 0 {
		return
	}
	tdone := now + v.extra
	s.q.Schedule(tdone, v.onDone)
	if s.lat != nil {
		s.lat.ObserveMiss(v.core, v.start, tdone, false, true, int(v.patt), &v.lat)
		s.cfg.Log.Request(v.core, v.start, tdone, false, true, int(v.patt), &v.lat)
	}
	s.recycleVop(v)
}
