// Package stress is the randomized differential-verification harness of
// the GS-DRAM simulator: it generates seeded random programs (mixed
// strides, patterns, page flags, read/write ratios, and multi-core
// interleavings), executes each through both the cycle-level machine and
// the timing-free golden model (internal/refmodel), diff-checks every
// loaded value plus the final memory and cache state, and shrinks any
// failing program to a minimal reproducer.
//
// Programs give each core disjoint address regions. This is what makes
// the oracle exact: with blocking cores and no cross-core sharing, every
// loaded value, the final memory image, and each core's L1 presence set
// are independent of event interleaving, so the golden model can execute
// the ops in plain program order. (Dirty bits and the shared L2 depend
// on multicore timing, so the cycle-level Run compares full cache state
// single-core only; RunFunctional executes in program order and always
// does. See verify.)
package stress

import (
	"fmt"
	"strings"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
	"gsdram/internal/refmodel"
	"gsdram/internal/sim"
)

// OpKind classifies one program operation.
type OpKind int

const (
	// OpLoad is a plain 8-byte load.
	OpLoad OpKind = iota
	// OpStore is a plain 8-byte store.
	OpStore
	// OpPattLoad is a pattload: gather one line with the region's
	// alternate pattern.
	OpPattLoad
	// OpPattStore is a pattstore: scatter one line with the region's
	// alternate pattern.
	OpPattStore
	// OpGatherV is an indexed gather: read the words at an explicit index
	// vector (Op.Idx) in one operation.
	OpGatherV
	// OpScatterV is an indexed scatter: the store counterpart of
	// OpGatherV.
	OpScatterV
)

func (k OpKind) String() string {
	switch k {
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpPattLoad:
		return "pattload"
	case OpPattStore:
		return "pattstore"
	case OpGatherV:
		return "gatherv"
	case OpScatterV:
		return "scatterv"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Region is one allocated data structure. Regions are bump-allocated in
// declaration order, so a program's address layout is a pure function of
// its region list.
type Region struct {
	Pages int            // size in 4 KB pages
	Alt   gsdram.Pattern // non-zero: pattmalloc'd with this alternate pattern
	Core  int            // owning core; only this core touches the region
}

// Op is one memory operation of the program.
type Op struct {
	Core   int
	Kind   OpKind
	Region int    // index into Program.Regions
	Off    int    // byte offset within the region (word- or line-aligned)
	Val    uint64 // store value seed (stores only)
	Gap    int    // compute cycles preceding the op (interleaving variety)
	Idx    []int  // OpGatherV/OpScatterV: word offsets within the region
}

// Program is a complete generated test case.
type Program struct {
	Seed    uint64
	Spec    addrmap.Spec
	GS      gsdram.Params
	Cores   int
	Regions []Region
	Ops     []Op
}

// GenConfig selects optional op classes for generation. The zero value
// reproduces the historical generator exactly (seed-for-seed), which the
// golden-program test pins.
type GenConfig struct {
	// Indexed enables gatherv/scatterv ops: larger regions (so index
	// vectors can reach several banks and rows) and, per op, a one-in-three
	// chance of an indexed access with a randomly chosen vector flavour.
	Indexed bool
}

// Generate builds the random program for a seed. Equal seeds generate
// equal programs on every platform (the generator draws exclusively from
// the repo's own xorshift PRNG).
func Generate(seed uint64) Program {
	return GenerateWith(seed, GenConfig{})
}

// GenerateWith is Generate with explicit op-class configuration. Every
// extra draw is gated behind the enabling flag, so the zero config stays
// byte-identical with historical programs for every seed.
func GenerateWith(seed uint64, cfg GenConfig) Program {
	r := sim.NewRand(seed)
	p := Program{Seed: seed}

	// Small organisations and caches so short programs still exercise
	// evictions, writebacks and overlap coherence traffic.
	if r.Intn(2) == 0 {
		p.GS = gsdram.GS844
	} else {
		p.GS = gsdram.GS422
	}
	p.Spec = addrmap.Spec{
		Channels:  1 << r.Intn(2),
		Ranks:     1,
		Banks:     8,
		Rows:      32,
		Cols:      64,
		LineBytes: p.GS.LineBytes(),
	}
	p.Cores = 1 + r.Intn(3)

	// Disjoint per-core regions (see package comment).
	for core := 0; core < p.Cores; core++ {
		n := 1 + r.Intn(2)
		for i := 0; i < n; i++ {
			reg := Region{Pages: 1 + r.Intn(2), Core: core}
			if cfg.Indexed {
				// Indexed vectors want room: up to 9 pages reaches several
				// banks (4 KB per bank step on the 1-channel map) and, past
				// 8 banks, a second row of bank 0 — the adversarial
				// same-bank-different-row conflict.
				reg.Pages = 1 + r.Intn(9)
			}
			if r.Intn(4) != 0 { // 3/4 shuffled
				reg.Alt = gsdram.Pattern(1 + r.Uint64n(uint64(p.GS.MaxPattern())))
			}
			p.Regions = append(p.Regions, reg)
		}
	}

	// Per-core region index lists for quick picking.
	owned := make([][]int, p.Cores)
	for i, reg := range p.Regions {
		owned[reg.Core] = append(owned[reg.Core], i)
	}

	lb := p.Spec.LineBytes
	nops := 30 + r.Intn(150)
	for i := 0; i < nops; i++ {
		core := r.Intn(p.Cores)
		ri := owned[core][r.Intn(len(owned[core]))]
		reg := p.Regions[ri]
		size := reg.Pages * refmodel.PageSize
		op := Op{Core: core, Region: ri, Gap: r.Intn(4)}
		if cfg.Indexed && r.Intn(3) == 0 {
			op.Kind = OpGatherV
			if r.Intn(2) == 0 {
				op.Kind = OpScatterV
			}
			op.Idx = indexVector(r, &p, size)
			if op.Kind == OpScatterV {
				op.Val = r.Uint64()
			}
			p.Ops = append(p.Ops, op)
			continue
		}
		if reg.Alt == 0 {
			op.Kind = OpKind(r.Intn(2)) // load/store only
		} else {
			op.Kind = OpKind(r.Intn(4))
		}
		switch op.Kind {
		case OpLoad, OpStore:
			op.Off = r.Intn(size/8) * 8
		case OpPattLoad, OpPattStore:
			op.Off = r.Intn(size/lb) * lb
		}
		if op.Kind == OpStore || op.Kind == OpPattStore {
			op.Val = r.Uint64()
		}
		p.Ops = append(p.Ops, op)
	}
	return p
}

// indexVector draws one index vector (word offsets within a region of
// `size` bytes) of a random flavour: uniform random, sorted,
// duplicate-heavy, pattern-strided (coalescible on shuffled pages), or
// adversarially bank/row-conflicting.
func indexVector(r *sim.Rand, p *Program, size int) []int {
	words := size / 8
	n := 2 + r.Intn(23)
	if n > words {
		n = words
	}
	idx := make([]int, n)
	switch r.Intn(5) {
	case 0: // uniform random
		for i := range idx {
			idx[i] = r.Intn(words)
		}
	case 1: // sorted ascending — maximal run lengths for the coalescer
		for i := range idx {
			idx[i] = r.Intn(words)
		}
		sortInts(idx)
	case 2: // duplicate-heavy: sample from a pool of at most 4 words
		pool := [4]int{r.Intn(words), r.Intn(words), r.Intn(words), r.Intn(words)}
		for i := range idx {
			idx[i] = pool[r.Intn(len(pool))]
		}
	case 3: // stride-Chips field walk — the gatherable case (§4.2)
		stride := p.GS.Chips
		span := (n - 1) * stride
		start := 0
		if words > span {
			start = r.Intn(words - span)
		}
		for i := range idx {
			idx[i] = (start + i*stride) % words
		}
	case 4: // bank/row conflict: alternate two far-apart congruent words
		strideW := p.Spec.LineBytes * p.Spec.Channels * p.Spec.Cols * p.Spec.Ranks / 8 // one bank step
		if rowW := strideW * p.Spec.Banks; words > rowW {
			strideW = rowW // big region: same bank, adjacent rows
		}
		a := r.Intn(words)
		b := (a + strideW) % words
		for i := range idx {
			if i%2 == 0 {
				idx[i] = a
			} else {
				idx[i] = b
			}
		}
	}
	return idx
}

// sortInts is insertion sort: deterministic, and the vectors are tiny.
func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Pattern returns the pattern ID an op accesses with: the region's
// alternate pattern for patterned ops, 0 otherwise.
func (p *Program) Pattern(op Op) gsdram.Pattern {
	if op.Kind == OpPattLoad || op.Kind == OpPattStore {
		return p.Regions[op.Region].Alt
	}
	return 0
}

// String renders the program as a readable reproducer listing.
func (p Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program seed=%d gs=(%d,%d,%d) spec=%dch/%dr/%db/%drows/%dcols/%dB cores=%d\n",
		p.Seed, p.GS.Chips, p.GS.ShuffleStages, p.GS.PatternBits,
		p.Spec.Channels, p.Spec.Ranks, p.Spec.Banks, p.Spec.Rows, p.Spec.Cols, p.Spec.LineBytes,
		p.Cores)
	for i, reg := range p.Regions {
		kind := "malloc"
		if reg.Alt != 0 {
			kind = fmt.Sprintf("pattmalloc alt=%d", reg.Alt)
		}
		fmt.Fprintf(&b, "  region %d: core %d, %d page(s), %s\n", i, reg.Core, reg.Pages, kind)
	}
	for i, op := range p.Ops {
		if op.Kind == OpGatherV || op.Kind == OpScatterV {
			fmt.Fprintf(&b, "  op %3d: core %d %-9s region %d idx %v", i, op.Core, op.Kind, op.Region, op.Idx)
		} else {
			fmt.Fprintf(&b, "  op %3d: core %d %-9s region %d off %#x", i, op.Core, op.Kind, op.Region, op.Off)
		}
		if op.Kind == OpStore || op.Kind == OpPattStore || op.Kind == OpScatterV {
			fmt.Fprintf(&b, " val %#x", op.Val)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
