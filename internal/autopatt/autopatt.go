// Package autopatt implements the automatic access-pattern detection the
// paper leaves as future work (§4): "It is also possible for the
// processor to dynamically identify different access patterns present in
// an application and exploit GS-DRAM to accelerate such patterns
// transparently to the application."
//
// The detector watches the load stream per PC. When a PC issues loads
// with a constant power-of-2 word stride whose pattern ID matches the
// page's alternate pattern, the memory system *promotes* the plain loads
// to gathered accesses: the lookup is redirected to the pattern-tagged
// gathered line that contains the requested word, so one DRAM gather
// serves the next several strided loads — pattload performance without
// recompiling the program.
package autopatt

import (
	"gsdram/internal/addrmap"
)

// Config parameterises the detector.
type Config struct {
	TableEntries int // per-PC tracking table size
	MinConf      int // consecutive stride matches before promoting
}

// DefaultConfig returns a 256-entry table requiring 3 consecutive
// matches — conservative enough that pointer chases never promote.
func DefaultConfig() Config {
	return Config{TableEntries: 256, MinConf: 3}
}

// Stats counts detector activity.
type Stats struct {
	Observed   uint64
	Promoted   uint64 // accesses redirected to gathered lines
	StrideHits uint64
}

type entry struct {
	valid  bool
	pc     uint64
	last   addrmap.Addr
	stride int64
	conf   int
}

// Detector is the per-PC stride tracker.
type Detector struct {
	cfg   Config
	table []entry
	stats Stats
}

// New returns a detector; TableEntries is clamped to at least 1.
func New(cfg Config) *Detector {
	if cfg.TableEntries <= 0 {
		cfg.TableEntries = 1
	}
	if cfg.MinConf <= 0 {
		cfg.MinConf = 1
	}
	return &Detector{cfg: cfg, table: make([]entry, cfg.TableEntries)}
}

// Stats returns a snapshot of the counters.
func (d *Detector) Stats() Stats { return d.stats }

// SetStats puts back counters that Stats returned.
func (d *Detector) SetStats(s Stats) { d.stats = s }

// CountPromotion records that the memory system acted on a detection.
func (d *Detector) CountPromotion() { d.stats.Promoted++ }

// Observe trains on a load (pc, byte address) and returns the confident
// word stride (stride in 8-byte words), or ok=false while unconfident.
// Only positive power-of-2 word strides in [2, 2^16] are reported: stride
// 1 is an ordinary sequential scan that needs no gathering, and negative
// or irregular strides never promote.
func (d *Detector) Observe(pc uint64, addr addrmap.Addr) (wordStride int, ok bool) {
	d.stats.Observed++
	h := pc * 0x9E3779B97F4A7C15
	e := &d.table[(h>>32)%uint64(len(d.table))]
	if !e.valid || e.pc != pc {
		*e = entry{valid: true, pc: pc, last: addr}
		return 0, false
	}
	stride := int64(addr) - int64(e.last)
	e.last = addr
	if stride == e.stride && stride != 0 {
		if e.conf < d.cfg.MinConf {
			e.conf++
		}
		d.stats.StrideHits++
	} else {
		e.stride = stride
		e.conf = 0
		return 0, false
	}
	if e.conf < d.cfg.MinConf {
		return 0, false
	}
	if e.stride <= 8 || e.stride%8 != 0 {
		return 0, false
	}
	ws := e.stride / 8
	if ws&(ws-1) != 0 || ws > 1<<16 {
		return 0, false
	}
	return int(ws), true
}
