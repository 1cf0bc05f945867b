package stress

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/cache"
	"gsdram/internal/gsdram"
	"gsdram/internal/machine"
	"gsdram/internal/refmodel"
)

// verify runs the post-run checks of a finished run and returns the
// first divergence: the golden model's replay of every recorded load
// value and gather index, then (after the model writes its caches back)
// the final chip image, each L1's resident lines, and the L2's. l1 and
// l2 are the simulator's resident lines. Dirty bits and the L2 are
// compared only with fullState, since with more than one core they
// depend on the cores' timing interleaving (see the package comment).
// err reports a malformed program.
func (r *run) verify(l1 [][]cache.Line, l2 []cache.Line, fullState bool) (*Divergence, error) {
	if div, err := replayModel(r.p, r.model, r.bases, r.res); div != nil || err != nil {
		return div, err
	}
	r.model.FlushCaches()
	if div := diffMemory(r.mach, r.model); div != nil {
		return div, nil
	}
	refL1, refL2 := r.model.CacheLines()
	for c := range l1 {
		if div := diffLines(fmt.Sprintf("L1[%d]", c), l1[c], refL1[c], fullState); div != nil {
			return div, nil
		}
	}
	if !fullState {
		return nil, nil
	}
	return diffLines("L2", l2, refL2, true), nil
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
