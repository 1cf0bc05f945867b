package stress

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/cache"
	"gsdram/internal/cpu"
	"gsdram/internal/flight"
	"gsdram/internal/gsdram"
	"gsdram/internal/machine"
	"gsdram/internal/memctrl"
	"gsdram/internal/memsys"
	"gsdram/internal/refmodel"
	"gsdram/internal/rig"
)

// Options configures one differential run.
type Options struct {
	// NoInline disables the cores' event-horizon fast path, so the pure
	// event-driven execution goes through the oracle too.
	NoInline bool
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

// A run is one differential run of a program: the simulator side (the
// machine that moves the data and the memory system that caches and times
// it), the golden model, and the records the simulator side fills.
type run struct {
	p     Program
	mach  *machine.Machine
	sys   *rig.Rig
	model *refmodel.Model
	bases []addrmap.Addr // each region's base, the same on both sides
	res   *Result
	buf   []uint64 // exec's reusable line buffer
}

// newRun builds both sides of a differential run and populates them
// identically: every region allocated at the same base and every word
// seeded. ro are the simulator side's rig options.
func newRun(p Program, ro rig.Options) (*run, error) {
	if p.Cores <= 0 || len(p.Ops) == 0 && len(p.Regions) == 0 {
		return nil, fmt.Errorf("stress: empty program")
	}
	mach, err := machine.New(p.Spec, p.GS)
	if err != nil {
		return nil, err
	}
	l1cfg, l2cfg := cacheGeoms(p.Spec.LineBytes)
	model, err := refmodel.New(refmodel.Config{
		Spec:  p.Spec,
		GS:    p.GS,
		Cores: p.Cores,
		L1:    refmodel.CacheGeom{SizeBytes: l1cfg.SizeBytes, Ways: l1cfg.Ways, LineBytes: l1cfg.LineBytes},
		L2:    refmodel.CacheGeom{SizeBytes: l2cfg.SizeBytes, Ways: l2cfg.Ways, LineBytes: l2cfg.LineBytes},
	})
	if err != nil {
		return nil, err
	}
	bases := make([]addrmap.Addr, len(p.Regions))
	for i, reg := range p.Regions {
		size := reg.Pages * refmodel.PageSize
		var base addrmap.Addr
		if reg.Alt != 0 {
			base, err = mach.AS.PattMalloc(size, reg.Alt)
		} else {
			base, err = mach.AS.Malloc(size)
		}
		if err != nil {
			return nil, fmt.Errorf("stress: region %d: %w", i, err)
		}
		bases[i] = base
		if err := model.SetRegion(base, size, refmodel.Page{Shuffled: reg.Alt != 0, Alt: reg.Alt}); err != nil {
			return nil, err
		}
		for b := 0; b < size; b += 8 {
			a := base + addrmap.Addr(b)
			v := popValue(p.Seed, a)
			if err := mach.WriteWord(a, v); err != nil {
				return nil, err
			}
			model.InitWord(a, v)
		}
	}

	// The cycle-level and functional runs share this hierarchy, so both
	// exercise the same cache geometry and protocol.
	memCfg := memctrl.DefaultConfig()
	memCfg.Spec = p.Spec
	sys, err := rig.New(memsys.Config{
		Cores:          p.Cores,
		L1:             l1cfg,
		L2:             l2cfg,
		L1Latency:      3,
		L2Latency:      18,
		Mem:            memCfg,
		GS:             p.GS,
		ShuffleLatency: 3,
	}, ro)
	if err != nil {
		return nil, err
	}
	return &run{
		p: p, mach: mach, sys: sys, model: model, bases: bases,
		res: &Result{Records: make([]Record, len(p.Ops))},
		buf: make([]uint64, p.GS.Chips),
	}, nil
}

// exec performs the simulator side of op gi: it moves the op's data
// through the machine (functionally, at issue), fills the op's Record
// with what a load observed, and returns the core op that carries the
// access (with its page's §4.1 flags) through the memory system. An
// error names the op.
func (r *run) exec(gi int) (cpu.Op, error) {
	op := r.p.Ops[gi]
	addr := r.bases[op.Region] + addrmap.Addr(op.Off)
	patt := r.p.Pattern(op)
	rec := &r.res.Records[gi]
	rec.Addr, rec.Patt = addr, patt
	mop := cpu.Op{Kind: cpu.OpLoad, Addr: addr, Pattern: patt, PC: uint64(gi)}
	var err error
	switch op.Kind {
	case OpLoad:
		var v uint64
		if v, err = r.mach.ReadWord(addr); err == nil {
			rec.Vals = []uint64{v}
		}
	case OpStore:
		mop.Kind = cpu.OpStore
		err = r.mach.WriteWord(addr, op.Val)
	case OpPattLoad:
		var idx []int
		if idx, err = r.mach.ReadLineIndices(addr, patt, r.buf); err == nil {
			rec.Vals = append([]uint64(nil), r.buf...)
			rec.Idx = append([]int(nil), idx...)
		}
	case OpPattStore:
		mop.Kind = cpu.OpStore
		err = r.mach.WriteLine(addr, patt, lineVals(r.p.GS.Chips, op.Val))
	case OpGatherV:
		mop = cpu.Op{Kind: cpu.OpGatherV, Addrs: idxAddrs(addr, op.Idx), PC: uint64(gi)}
		dst := make([]uint64, len(mop.Addrs))
		if err = r.mach.GatherV(mop.Addrs, dst); err == nil {
			rec.Vals = dst
		}
	case OpScatterV:
		mop = cpu.Op{Kind: cpu.OpScatterV, Addrs: idxAddrs(addr, op.Idx), PC: uint64(gi)}
		err = r.mach.ScatterV(mop.Addrs, scatterVals(len(mop.Addrs), op.Val))
	}
	if err != nil {
		return cpu.Op{}, fmt.Errorf("op %d (%s %#x): %w", gi, op.Kind, uint64(addr), err)
	}
	fl := r.mach.AS.Flags(addr)
	mop.Shuffled, mop.AltPattern = fl.Shuffled, fl.AltPattern
	return mop, nil
}

// Run executes a program on the cycle simulator and the golden model and
// diff-checks them. A non-nil Result.Div reports the first divergence;
// err reports a malformed program (not a divergence).
func Run(p Program, opts Options) (*Result, error) {
	r, err := newRun(p, rig.Options{NoInline: opts.NoInline, Log: opts.Flight})
	if err != nil {
		return nil, err
	}
	perCore := make([][]int, p.Cores)
	for i, op := range p.Ops {
		perCore[op.Core] = append(perCore[op.Core], i)
	}
	cores := make([]*cpu.Core, p.Cores)
	for c := range cores {
		cores[c] = cpu.New(c, r.sys.Queue(), r.sys.Mem(), r.stream(perCore[c]), nil)
	}
	hang := r.sys.Run(cores...)
	if r.res.Div != nil { // an exec error
		return r.res, nil
	}
	if hang != nil {
		r.res.Div = &Divergence{Kind: "hang", Op: -1, Detail: hang.Error()}
		return r.res, nil
	}
	l1, l2 := r.sys.Mem().SnapshotCaches()
	if r.res.Div, err = r.verify(l1, l2, p.Cores == 1); err != nil {
		return nil, err
	}
	return r.res, nil
}

// stream is one core's instruction stream: each of its ops in program
// order, the op's compute gap first. exec moves an op's data when the
// core fetches the op (or its gap), so loads record what they observed
// for verify. The first exec error becomes res.Div, an exec-error
// divergence, and ends every core's stream.
func (r *run) stream(opIdx []int) cpu.Stream {
	pos := 0
	var next cpu.OpQueue // the fetched op's gap, then the op
	return cpu.FuncStream(func() (cpu.Op, bool) {
		for next.Empty() {
			if pos >= len(opIdx) || r.res.Div != nil {
				return cpu.Op{}, false
			}
			gi := opIdx[pos]
			pos++
			mop, err := r.exec(gi)
			if err != nil {
				r.res.Div = &Divergence{Kind: "exec-error", Op: gi, Detail: err.Error()}
				return cpu.Op{}, false
			}
			if gap := r.p.Ops[gi].Gap; gap > 0 {
				next.Push(cpu.Compute(gap))
			}
			next.Push(mop)
		}
		return next.Pop()
	})
}
