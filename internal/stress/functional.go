package stress

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/cpu"
	"gsdram/internal/fastsim"
	"gsdram/internal/gsdram"
	"gsdram/internal/machine"
	"gsdram/internal/memctrl"
	"gsdram/internal/memsys"
	"gsdram/internal/refmodel"
	"gsdram/internal/sim"
)

// setupPair builds and identically populates both sides of a
// differential run: the machine (physical chip layout) and the golden
// model (flat logical memory), with every region allocated and every
// word seeded.
func setupPair(p Program) (*machine.Machine, *refmodel.Model, []addrmap.Addr, error) {
	mach, err := machine.New(p.Spec, p.GS)
	if err != nil {
		return nil, nil, nil, err
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
		return nil, nil, nil, err
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
			return nil, nil, nil, fmt.Errorf("stress: region %d: %w", i, err)
		}
		bases[i] = base
		if err := model.SetRegion(base, size, refmodel.Page{Shuffled: reg.Alt != 0, Alt: reg.Alt}); err != nil {
			return nil, nil, nil, err
		}
		for b := 0; b < size; b += 8 {
			a := base + addrmap.Addr(b)
			v := popValue(p.Seed, a)
			if err := mach.WriteWord(a, v); err != nil {
				return nil, nil, nil, err
			}
			model.InitWord(a, v)
		}
	}
	return mach, model, bases, nil
}

// memsysConfig is the stress rig's detailed-hierarchy configuration,
// shared by the cycle-level and functional runs so both exercise the
// same cache geometry and protocol.
func memsysConfig(p Program) memsys.Config {
	l1cfg, l2cfg := cacheGeoms(p.Spec.LineBytes)
	memCfg := memctrl.DefaultConfig()
	memCfg.Spec = p.Spec
	return memsys.Config{
		Cores:          p.Cores,
		L1:             l1cfg,
		L2:             l2cfg,
		L1Latency:      3,
		L2Latency:      18,
		Mem:            memCfg,
		GS:             p.GS,
		ShuffleLatency: 3,
	}
}

// replayModel executes the program on the golden model in plain program
// order and diff-checks every recorded load value and gather index.
// A non-nil Divergence is the first mismatch; err reports a malformed
// program.
func replayModel(p Program, model *refmodel.Model, bases []addrmap.Addr, res *Result) (*Divergence, error) {
	chips := p.GS.Chips
	refVals := make([]uint64, chips)
	for i, op := range p.Ops {
		addr := bases[op.Region] + addrmap.Addr(op.Off)
		rec := &res.Records[i]
		switch op.Kind {
		case OpLoad:
			v, err := model.LoadWord(op.Core, addr)
			if err != nil {
				return nil, err
			}
			if v != rec.Vals[0] {
				return &Divergence{Kind: "load-value", Op: i, Detail: fmt.Sprintf(
					"load %#x: sim %#x, model %#x", uint64(addr), rec.Vals[0], v)}, nil
			}
		case OpStore:
			if err := model.StoreWord(op.Core, addr, op.Val); err != nil {
				return nil, err
			}
		case OpPattLoad:
			idx, err := model.LoadLine(op.Core, addr, p.Pattern(op), refVals)
			if err != nil {
				return nil, err
			}
			for j := 0; j < chips; j++ {
				if idx[j] != rec.Idx[j] {
					return &Divergence{Kind: "gather-index", Op: i, Detail: fmt.Sprintf(
						"pattload %#x patt %d pos %d: sim index %d, model %d",
						uint64(addr), p.Pattern(op), j, rec.Idx[j], idx[j])}, nil
				}
				if refVals[j] != rec.Vals[j] {
					return &Divergence{Kind: "load-value", Op: i, Detail: fmt.Sprintf(
						"pattload %#x patt %d pos %d (logical %d): sim %#x, model %#x",
						uint64(addr), p.Pattern(op), j, idx[j], rec.Vals[j], refVals[j])}, nil
				}
			}
		case OpPattStore:
			if err := model.StoreLine(op.Core, addr, p.Pattern(op), lineVals(chips, op.Val)); err != nil {
				return nil, err
			}
		case OpGatherV:
			addrs := idxAddrs(addr, op.Idx)
			ref := make([]uint64, len(addrs))
			if err := model.GatherV(addrs, ref); err != nil {
				return nil, err
			}
			for j := range addrs {
				if ref[j] != rec.Vals[j] {
					return &Divergence{Kind: "load-value", Op: i, Detail: fmt.Sprintf(
						"gatherv pos %d (word %#x): sim %#x, model %#x",
						j, uint64(addrs[j]), rec.Vals[j], ref[j])}, nil
				}
			}
		case OpScatterV:
			addrs := idxAddrs(addr, op.Idx)
			if err := model.ScatterV(addrs, scatterVals(len(addrs), op.Val)); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

// diffMemory compares the machine's final physical chip layout against
// the golden model's expectation. Call model.FlushCaches first.
func diffMemory(mach *machine.Machine, model *refmodel.Model) *Divergence {
	var memDiv *Divergence
	mach.ForEachModule(func(channel, rank int, mod *gsdram.Module) {
		mod.ForEachWord(func(bank, row, chipCol, chip int, v uint64) {
			if memDiv != nil {
				return
			}
			if want := model.ChipWord(channel, rank, bank, row, chipCol, chip); v != want {
				memDiv = &Divergence{Kind: "final-memory", Op: -1, Detail: fmt.Sprintf(
					"chip word ch%d rank%d bank%d row%d col%d chip%d: sim %#x, model %#x",
					channel, rank, bank, row, chipCol, chip, v, want)}
			}
		})
	})
	return memDiv
}

// RunFunctional executes a program through the functional fast-forward
// path — fastsim.Functional dispatching every memory op to
// memsys.WarmAccess, data movement performed architecturally by the
// machine at op generation, zero events and zero cycles — and
// diff-checks it against the golden model exactly as the cycle-level run
// does: every loaded value and gather index, the final DRAM chip image,
// and (since both sides execute in plain program order, regardless of
// core count) the full resident-line state of every cache including
// dirty bits. The returned uint64 is the functional retired-instruction
// count, which must match what cpu cores would retire for the same
// program.
func RunFunctional(p Program) (*Result, uint64, error) {
	if p.Cores <= 0 || len(p.Ops) == 0 && len(p.Regions) == 0 {
		return nil, 0, fmt.Errorf("stress: empty program")
	}
	mach, model, bases, err := setupPair(p)
	if err != nil {
		return nil, 0, err
	}
	q := &sim.EventQueue{}
	mem, err := memsys.New(memsysConfig(p), q)
	if err != nil {
		return nil, 0, err
	}
	f := fastsim.NewFunctional(mem)

	res := &Result{Records: make([]Record, len(p.Ops))}
	buf := make([]uint64, p.GS.Chips)
	for gi, op := range p.Ops {
		addr := bases[op.Region] + addrmap.Addr(op.Off)
		patt := p.Pattern(op)
		rec := &res.Records[gi]
		rec.Addr, rec.Patt = addr, patt
		var addrs []addrmap.Addr // an indexed op's elements, also its core op's
		switch op.Kind {
		case OpLoad:
			v, err := mach.ReadWord(addr)
			if err != nil {
				return nil, 0, fmt.Errorf("op %d (%s %#x): %w", gi, op.Kind, uint64(addr), err)
			}
			rec.Vals = []uint64{v}
		case OpStore:
			if err := mach.WriteWord(addr, op.Val); err != nil {
				return nil, 0, fmt.Errorf("op %d (%s %#x): %w", gi, op.Kind, uint64(addr), err)
			}
		case OpPattLoad:
			idx, err := mach.ReadLineIndices(addr, patt, buf)
			if err != nil {
				return nil, 0, fmt.Errorf("op %d (%s %#x): %w", gi, op.Kind, uint64(addr), err)
			}
			rec.Vals = append([]uint64(nil), buf...)
			rec.Idx = append([]int(nil), idx...)
		case OpPattStore:
			if err := mach.WriteLine(addr, patt, lineVals(p.GS.Chips, op.Val)); err != nil {
				return nil, 0, fmt.Errorf("op %d (%s %#x): %w", gi, op.Kind, uint64(addr), err)
			}
		case OpGatherV:
			addrs = idxAddrs(addr, op.Idx)
			dst := make([]uint64, len(addrs))
			if err := mach.GatherV(addrs, dst); err != nil {
				return nil, 0, fmt.Errorf("op %d (%s %#x): %w", gi, op.Kind, uint64(addr), err)
			}
			rec.Vals = dst
		case OpScatterV:
			addrs = idxAddrs(addr, op.Idx)
			if err := mach.ScatterV(addrs, scatterVals(len(addrs), op.Val)); err != nil {
				return nil, 0, fmt.Errorf("op %d (%s %#x): %w", gi, op.Kind, uint64(addr), err)
			}
		}
		if op.Gap > 0 {
			f.Exec(op.Core, cpu.Compute(op.Gap))
		}
		fl := mach.AS.Flags(addr)
		if op.Kind == OpGatherV || op.Kind == OpScatterV {
			kind := cpu.OpGatherV
			if op.Kind == OpScatterV {
				kind = cpu.OpScatterV
			}
			f.Exec(op.Core, cpu.Op{
				Kind:       kind,
				Addrs:      addrs,
				Shuffled:   fl.Shuffled,
				AltPattern: fl.AltPattern,
				PC:         uint64(gi),
			})
			continue
		}
		kind := cpu.OpLoad
		if op.Kind == OpStore || op.Kind == OpPattStore {
			kind = cpu.OpStore
		}
		f.Exec(op.Core, cpu.Op{
			Kind:       kind,
			Addr:       addr,
			Pattern:    patt,
			Shuffled:   fl.Shuffled,
			AltPattern: fl.AltPattern,
			PC:         uint64(gi),
		})
	}
	simL1, simL2 := mem.SnapshotCaches()

	if div, err := replayModel(p, model, bases, res); err != nil {
		return nil, 0, err
	} else if div != nil {
		res.Div = div
		return res, f.Instructions(), nil
	}

	model.FlushCaches()
	if d := diffMemory(mach, model); d != nil {
		res.Div = d
		return res, f.Instructions(), nil
	}

	refL1, refL2 := model.CacheLines()
	for c := range simL1 {
		if d := diffLines(fmt.Sprintf("L1[%d]", c), simL1[c], refL1[c], true); d != nil {
			res.Div = d
			return res, f.Instructions(), nil
		}
	}
	if d := diffLines("L2", simL2, refL2, true); d != nil {
		res.Div = d
		return res, f.Instructions(), nil
	}
	return res, f.Instructions(), nil
}
