// Package prefetch implements the PC-based stride prefetcher used in the
// paper's analytics evaluation (§5.1): a reference-prediction table indexed
// by the program counter of the load, detecting per-PC strides and issuing
// a configurable number of prefetches (degree 4 in Table 1's setup) into
// the L2 cache.
package prefetch

import (
	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
)

// Config parameterises the prefetcher.
type Config struct {
	TableEntries int // reference prediction table size
	Degree       int // prefetches issued per trained access
	MinConf      int // confidence needed before issuing (consecutive stride matches)
}

// DefaultConfig matches the paper: PC-based stride prefetcher [6] with a
// prefetch degree of 4 [44].
func DefaultConfig() Config {
	return Config{TableEntries: 256, Degree: 4, MinConf: 2}
}

// Candidate is one prefetch the prefetcher wants issued.
type Candidate struct {
	Addr    addrmap.Addr
	Pattern gsdram.Pattern
}

// Stats counts prefetcher activity.
type Stats struct {
	Trains     uint64
	Issues     uint64
	StrideHits uint64 // accesses whose stride matched the table entry
}

type entry struct {
	valid   bool
	pc      uint64
	lastAdr addrmap.Addr
	pattern gsdram.Pattern
	stride  int64
	conf    int
}

// Prefetcher is a PC-indexed stride predictor. It is purely reactive:
// Observe is called for every demand access that reaches the L2, and the
// candidates it appends are issued (or dropped) by the memory system.
type Prefetcher struct {
	cfg   Config
	table []entry
	stats Stats
}

// New returns a prefetcher; a zero-degree config disables it (Observe
// never appends).
func New(cfg Config) *Prefetcher {
	if cfg.TableEntries <= 0 {
		cfg.TableEntries = 1
	}
	return &Prefetcher{cfg: cfg, table: make([]entry, cfg.TableEntries)}
}

// Stats returns a snapshot of the counters.
func (p *Prefetcher) Stats() Stats { return p.stats }

// SetStats puts back counters that Stats returned.
func (p *Prefetcher) SetStats(s Stats) { p.stats = s }

// Observe trains on a demand access (pc, addr, pattern) and appends the
// prefetch candidates to issue to dst, returning the extended slice; a
// caller that reuses one buffer (dst[:0]) trains without allocating.
// Candidates carry the same pattern ID as the training stream: a strided
// pattload stream prefetches further gathered lines, which is what makes
// GS-DRAM analytics prefetchable.
func (p *Prefetcher) Observe(dst []Candidate, pc uint64, addr addrmap.Addr, pattern gsdram.Pattern) []Candidate {
	if p.cfg.Degree <= 0 {
		return dst
	}
	p.stats.Trains++
	// Hash the PC into the table: low PC bits are poorly distributed
	// (aligned code addresses), and two concurrent streams must not thrash
	// one entry just because their PCs share low bits.
	h := pc * 0x9E3779B97F4A7C15
	e := &p.table[(h>>32)%uint64(len(p.table))]
	if !e.valid || e.pc != pc || e.pattern != pattern {
		*e = entry{valid: true, pc: pc, lastAdr: addr, pattern: pattern}
		return dst
	}
	stride := int64(addr) - int64(e.lastAdr)
	if stride == e.stride && stride != 0 {
		if e.conf < p.cfg.MinConf {
			e.conf++
		}
		p.stats.StrideHits++
	} else {
		e.stride = stride
		e.conf = 0
	}
	e.lastAdr = addr

	if e.conf < p.cfg.MinConf || e.stride == 0 {
		return dst
	}
	n := len(dst)
	for i := 1; i <= p.cfg.Degree; i++ {
		next := int64(addr) + e.stride*int64(i)
		if next < 0 {
			break
		}
		dst = append(dst, Candidate{Addr: addrmap.Addr(next), Pattern: pattern})
	}
	p.stats.Issues += uint64(len(dst) - n)
	return dst
}
