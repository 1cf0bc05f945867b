package gsdram_test

import (
	"slices"
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
	"gsdram/internal/machine"
)

// TestMachineModulesShareOnePlanTable checks that the modules of a
// 2-channel, 2-rank machine share one gather-plan table, and that each
// still behaves exactly like an independently built module: the same
// mix of patterned, shuffled and plain line writes, applied to every
// module before any is read back, returns the same lines and indices.
func TestMachineModulesShareOnePlanTable(t *testing.T) {
	gs := gsdram.GS844
	spec := addrmap.Spec{Channels: 2, Ranks: 2, Banks: 2, Rows: 4, Cols: 16, LineBytes: gs.LineBytes()}
	geom := gsdram.Geometry{Banks: spec.Banks, Rows: spec.Rows, Cols: spec.Cols}
	mach, err := machine.New(spec, gs)
	if err != nil {
		t.Fatal(err)
	}
	var mods, refs []*gsdram.Module
	mach.ForEachModule(func(channel, rank int, mod *gsdram.Module) {
		ref, err := gsdram.NewModuleFunc(gs, geom, nil)
		if err != nil {
			t.Fatal(err)
		}
		mods, refs = append(mods, mod), append(refs, ref)
	})
	if len(mods) != spec.Channels*spec.Ranks {
		t.Fatalf("machine has %d modules, want %d", len(mods), spec.Channels*spec.Ranks)
	}
	for i, mod := range mods {
		if !gsdram.SharePlanTable(mods[0], mod) {
			t.Errorf("module %d builds its own plan table", i)
		}
		if gsdram.SharePlanTable(mod, refs[i]) {
			t.Errorf("independently built module %d shares the machine's plan table", i)
		}
	}

	x := uint64(1)
	line := make([]uint64, gs.Chips)
	for i := range mods {
		for step := 0; step < 300; step++ {
			x = x*6364136223846793005 + 1442695040888963407
			bank, row, col := int(x>>8)%geom.Banks, int(x>>16)%geom.Rows, int(x>>24)%geom.Cols
			patt, shuffled := gsdram.Pattern(x>>32)%(gs.MaxPattern()+1), x>>40&1 == 1
			for k := range line {
				line[k] = x>>48 + uint64(i<<12|step<<4|k)
			}
			errMod := mods[i].WriteLine(bank, row, col, patt, shuffled, line)
			errRef := refs[i].WriteLine(bank, row, col, patt, shuffled, line)
			if errMod != nil || errRef != nil {
				t.Fatalf("WriteLine: machine module %v, independent module %v", errMod, errRef)
			}
		}
	}
	got, want := make([]uint64, gs.Chips), make([]uint64, gs.Chips)
	for i := range mods {
		for bank := 0; bank < geom.Banks; bank++ {
			for row := 0; row < geom.Rows; row++ {
				for col := 0; col < geom.Cols; col++ {
					for patt := gsdram.Pattern(0); patt <= gs.MaxPattern(); patt++ {
						for _, shuffled := range []bool{false, true} {
							gotIdx, err := mods[i].ReadLine(bank, row, col, patt, shuffled, got)
							if err != nil {
								t.Fatal(err)
							}
							wantIdx, err := refs[i].ReadLine(bank, row, col, patt, shuffled, want)
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(gotIdx, wantIdx) || !slices.Equal(got, want) {
								t.Fatalf("module %d bank %d row %d col %d patt %d shuffled %v: got %v %#x, want %v %#x",
									i, bank, row, col, patt, shuffled, gotIdx, got, wantIdx, want)
							}
						}
					}
				}
			}
		}
	}
}
