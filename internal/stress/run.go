package stress

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/cache"
	"gsdram/internal/cpu"
	"gsdram/internal/flight"
	"gsdram/internal/gsdram"
	"gsdram/internal/machine"
	"gsdram/internal/memsys"
	"gsdram/internal/sim"
)

// Inject selects a deterministic fault injected into the simulator side
// of the differential run — used to validate that the oracle catches
// bugs and that the shrinker minimises them.
type Inject int

const (
	// InjectNone runs the real system unmodified.
	InjectNone Inject = iota
	// InjectShuffleSwap models a shuffle-math bug: on every pattload of a
	// line in an odd column of a shuffled page, the first two gathered
	// words are swapped before recording.
	InjectShuffleSwap
	// InjectIndexPerm models an index-translation bug in the coalescer:
	// every gatherv of two or more elements returns its first two values
	// permuted.
	InjectIndexPerm
)

// Options configures one differential run.
type Options struct {
	// NoInline disables the cores' event-horizon fast path, so the pure
	// event-driven execution goes through the oracle too.
	NoInline bool
	Inject   Inject
	// Flight, when non-nil, is the rig's event log: it records the run's
	// microarchitectural events (DDR commands, fills, coherence, bursts,
	// MSHRs, core ops) so a divergence can be dumped with the history
	// leading up to it.
	Flight *flight.Recorder
}

// Record is the observed architectural effect of one op on the simulator
// side: the values a load returned (and, for pattloads, the logical word
// indices the gather reported).
type Record struct {
	Addr addrmap.Addr
	Patt gsdram.Pattern
	Vals []uint64
	Idx  []int
}

// Divergence describes one mismatch between the simulator and the golden
// model.
type Divergence struct {
	Kind   string // load-value, gather-index, final-memory, cache-state, hang, exec-error
	Op     int    // op index the mismatch was observed at, or -1
	Detail string
}

func (d *Divergence) String() string {
	if d == nil {
		return "no divergence"
	}
	return fmt.Sprintf("%s at op %d: %s", d.Kind, d.Op, d.Detail)
}

// Result is the outcome of one differential run.
type Result struct {
	Records []Record
	Div     *Divergence
}

// popValue is the deterministic population value of a word: a splitmix64
// mix of the program seed and the address, never zero in practice, so a
// misrouted word is visible wherever it lands.
func popValue(seed uint64, a addrmap.Addr) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(uint64(a)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// lineVals derives the words of a pattstore from the op's value seed,
// identically on both sides.
func lineVals(chips int, seed uint64) []uint64 {
	vals := make([]uint64, chips)
	for i := range vals {
		vals[i] = popValue(seed, addrmap.Addr(i))
	}
	return vals
}

// idxAddrs materialises an indexed op's element addresses: region base
// plus each word offset.
func idxAddrs(base addrmap.Addr, idx []int) []addrmap.Addr {
	addrs := make([]addrmap.Addr, len(idx))
	for i, w := range idx {
		addrs[i] = base + addrmap.Addr(w*8)
	}
	return addrs
}

// scatterVals derives the words of a scatterv from the op's value seed,
// identically on both sides (position-keyed, like lineVals).
func scatterVals(n int, seed uint64) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = popValue(seed, addrmap.Addr(i))
	}
	return vals
}

// cacheGeoms returns the (deliberately tiny) cache geometries of the
// stress rig: 16-line 2-way L1s and a 64-line 4-way L2, so programs of a
// few dozen ops already see evictions and writebacks.
func cacheGeoms(lineBytes int) (l1, l2 cache.Config) {
	l1 = cache.Config{Name: "L1", SizeBytes: 16 * lineBytes, Ways: 2, LineBytes: lineBytes}
	l2 = cache.Config{Name: "L2", SizeBytes: 64 * lineBytes, Ways: 4, LineBytes: lineBytes}
	return l1, l2
}

// Run executes a program on the cycle simulator and the golden model and
// diff-checks them. A non-nil Result.Div reports the first divergence;
// err reports a malformed program (not a divergence).
func Run(p Program, opts Options) (*Result, error) {
	if p.Cores <= 0 || len(p.Ops) == 0 && len(p.Regions) == 0 {
		return nil, fmt.Errorf("stress: empty program")
	}

	// --- build and populate both sides ---------------------------------
	mach, model, bases, err := setupPair(p)
	if err != nil {
		return nil, err
	}

	// --- simulator run --------------------------------------------------
	q := &sim.EventQueue{}
	mcfg := memsysConfig(p)
	mcfg.Log = opts.Flight
	mem, err := memsys.New(mcfg, q)
	if err != nil {
		return nil, err
	}

	res := &Result{Records: make([]Record, len(p.Ops))}
	var execErr error
	errOp := -1

	perCore := make([][]int, p.Cores)
	for i, op := range p.Ops {
		perCore[op.Core] = append(perCore[op.Core], i)
	}
	cores := make([]*cpu.Core, p.Cores)
	for c := 0; c < p.Cores; c++ {
		cores[c] = cpu.New(c, q, mem, p.stream(perCore[c], bases, mach, res, &execErr, &errOp, opts), nil)
		cores[c].SetNoInline(opts.NoInline)
		cores[c].Start(0)
	}
	q.Run()

	if execErr != nil {
		res.Div = &Divergence{Kind: "exec-error", Op: errOp, Detail: execErr.Error()}
		return res, nil
	}
	for c, core := range cores {
		if !core.Stats().Finished {
			res.Div = &Divergence{Kind: "hang", Op: -1, Detail: fmt.Sprintf("core %d did not finish", c)}
			return res, nil
		}
	}
	simL1, simL2 := mem.SnapshotCaches()

	// --- golden-model run and value diff --------------------------------
	if div, err := replayModel(p, model, bases, res); err != nil {
		return nil, err
	} else if div != nil {
		res.Div = div
		return res, nil
	}

	// --- final memory diff ----------------------------------------------
	model.FlushCaches()
	if memDiv := diffMemory(mach, model); memDiv != nil {
		res.Div = memDiv
		return res, nil
	}

	// --- cache state diff -----------------------------------------------
	refL1, refL2 := model.CacheLines()
	for c := range simL1 {
		if d := diffLines(fmt.Sprintf("L1[%d]", c), simL1[c], refL1[c], p.Cores == 1); d != nil {
			res.Div = d
			return res, nil
		}
	}
	if p.Cores == 1 {
		// The shared L2 (and dirty bits everywhere) are only deterministic
		// without cross-core timing interleaving; see the package comment.
		if d := diffLines("L2", simL2, refL2, true); d != nil {
			res.Div = d
			return res, nil
		}
	}
	return res, nil
}

// diffLines compares two sorted resident-line snapshots. withDirty also
// compares dirty bits (single-core runs only).
func diffLines(name string, sim, ref []cache.Line, withDirty bool) *Divergence {
	if len(sim) != len(ref) {
		return &Divergence{Kind: "cache-state", Op: -1, Detail: fmt.Sprintf(
			"%s: sim holds %d lines, model %d\nsim: %v\nmodel: %v", name, len(sim), len(ref), sim, ref)}
	}
	for i := range sim {
		if sim[i].Addr != ref[i].Addr || sim[i].Pattern != ref[i].Pattern ||
			(withDirty && sim[i].Dirty != ref[i].Dirty) {
			return &Divergence{Kind: "cache-state", Op: -1, Detail: fmt.Sprintf(
				"%s line %d: sim %+v, model %+v", name, i, sim[i], ref[i])}
		}
	}
	return nil
}

// stream builds one core's instruction stream: for each of the core's
// ops, an optional compute gap followed by the memory op. The functional
// data movement happens at op fetch time (the machine is write-through
// functionally), and loads record what they observed for the later diff.
func (p *Program) stream(opIdx []int, bases []addrmap.Addr, mach *machine.Machine, res *Result, execErr *error, errOp *int, opts Options) cpu.Stream {
	pos := 0
	var pending *cpu.Op
	buf := make([]uint64, p.GS.Chips)
	return cpu.FuncStream(func() (cpu.Op, bool) {
		if pending != nil {
			op := *pending
			pending = nil
			return op, true
		}
		if pos >= len(opIdx) || *execErr != nil {
			return cpu.Op{}, false
		}
		gi := opIdx[pos]
		pos++
		op := p.Ops[gi]
		addr := bases[op.Region] + addrmap.Addr(op.Off)
		patt := p.Pattern(op)
		rec := &res.Records[gi]
		rec.Addr, rec.Patt = addr, patt

		fail := func(err error) (cpu.Op, bool) {
			*execErr = fmt.Errorf("op %d (%s %#x): %w", gi, op.Kind, uint64(addr), err)
			*errOp = gi
			return cpu.Op{}, false
		}
		var addrs []addrmap.Addr // an indexed op's elements, also its core op's
		switch op.Kind {
		case OpLoad:
			v, err := mach.ReadWord(addr)
			if err != nil {
				return fail(err)
			}
			rec.Vals = []uint64{v}
		case OpStore:
			if err := mach.WriteWord(addr, op.Val); err != nil {
				return fail(err)
			}
		case OpPattLoad:
			idx, err := mach.ReadLineIndices(addr, patt, buf)
			if err != nil {
				return fail(err)
			}
			rec.Vals = append([]uint64(nil), buf...)
			rec.Idx = append([]int(nil), idx...)
			if opts.Inject == InjectShuffleSwap {
				if loc, err := p.Spec.Decompose(addr); err == nil && loc.Col%2 == 1 {
					rec.Vals[0], rec.Vals[1] = rec.Vals[1], rec.Vals[0]
				}
			}
		case OpPattStore:
			if err := mach.WriteLine(addr, patt, lineVals(p.GS.Chips, op.Val)); err != nil {
				return fail(err)
			}
		case OpGatherV:
			addrs = idxAddrs(addr, op.Idx)
			dst := make([]uint64, len(addrs))
			if err := mach.GatherV(addrs, dst); err != nil {
				return fail(err)
			}
			rec.Vals = dst
			if opts.Inject == InjectIndexPerm && len(rec.Vals) >= 2 {
				rec.Vals[0], rec.Vals[1] = rec.Vals[1], rec.Vals[0]
			}
		case OpScatterV:
			addrs = idxAddrs(addr, op.Idx)
			if err := mach.ScatterV(addrs, scatterVals(len(addrs), op.Val)); err != nil {
				return fail(err)
			}
		}

		fl := mach.AS.Flags(addr)
		var mop cpu.Op
		if op.Kind == OpGatherV || op.Kind == OpScatterV {
			kind := cpu.OpGatherV
			if op.Kind == OpScatterV {
				kind = cpu.OpScatterV
			}
			mop = cpu.Op{
				Kind:       kind,
				Addrs:      addrs,
				Shuffled:   fl.Shuffled,
				AltPattern: fl.AltPattern,
				PC:         uint64(gi),
			}
		} else {
			kind := cpu.OpLoad
			if op.Kind == OpStore || op.Kind == OpPattStore {
				kind = cpu.OpStore
			}
			mop = cpu.Op{
				Kind:       kind,
				Addr:       addr,
				Pattern:    patt,
				Shuffled:   fl.Shuffled,
				AltPattern: fl.AltPattern,
				PC:         uint64(gi),
			}
		}
		if op.Gap > 0 {
			pending = &mop
			return cpu.Compute(op.Gap), true
		}
		return mop, true
	})
}
