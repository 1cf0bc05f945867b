package machine

import (
	"reflect"
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
	"gsdram/internal/sim"
)

// testSpec is a small organisation so property tests stay fast while
// still exercising multiple banks and patterned pages.
var testSpec = addrmap.Spec{Channels: 1, Ranks: 1, Banks: 4, Rows: 64, Cols: 16, LineBytes: 64}

// buildPopulated returns a machine with one plain and one pattern-7
// region, filled with seed-derived data, plus the two region bases.
func buildPopulated(t *testing.T, seed uint64) (*Machine, addrmap.Addr, addrmap.Addr) {
	t.Helper()
	m, err := New(testSpec, gsdram.GS844)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := m.AS.Malloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	shuf, err := m.AS.PattMalloc(8192, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(seed)
	for i := 0; i < 256; i++ {
		if err := m.WriteWord(plain+addrmap.Addr(8*rng.Intn(1024)), rng.Uint64()); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteWord(shuf+addrmap.Addr(8*rng.Intn(1024)), rng.Uint64()); err != nil {
			t.Fatal(err)
		}
	}
	return m, plain, shuf
}

// mutateBurst applies a seed-derived burst of random operations — word
// writes, patterned line scatters, and a fresh allocation — designed to
// touch every kind of machine state a shallow copy could alias.
func mutateBurst(t *testing.T, m *Machine, plain, shuf addrmap.Addr, seed uint64) {
	t.Helper()
	rng := sim.NewRand(seed)
	line := make([]uint64, testSpec.LineBytes/8)
	for i := 0; i < 200; i++ {
		switch rng.Intn(3) {
		case 0:
			if err := m.WriteWord(plain+addrmap.Addr(8*rng.Intn(1024)), rng.Uint64()); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := m.WriteWord(shuf+addrmap.Addr(8*rng.Intn(1024)), rng.Uint64()); err != nil {
				t.Fatal(err)
			}
		default:
			for j := range line {
				line[j] = rng.Uint64()
			}
			a := shuf + addrmap.Addr(64*rng.Intn(128))
			if err := m.WriteLine(a, 7, line); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Allocation mutates the address space (bump pointer and flags slice).
	if _, err := m.AS.PattMalloc(4096, 3); err != nil {
		t.Fatal(err)
	}
}

// sameContents reports whether every word a stores reads back the same
// from b, through the public iteration API.
func sameContents(t *testing.T, a, b *Machine) bool {
	t.Helper()
	same := true
	a.ForEachModule(func(ch, rk int, mod *gsdram.Module) {
		mod.ForEachWord(func(bank, row, chipCol, chip int, v uint64) {
			bv, err := b.Module(addrmap.Loc{Channel: ch, Rank: rk, Bank: bank}).ChipWord(bank, row, chipCol, chip)
			if err != nil {
				t.Fatal(err)
			}
			if bv != v {
				same = false
			}
		})
	})
	return same
}

// TestCloneIndependence: mutating a clone with a random op burst must
// leave the original identical to a pristine twin built from the same
// seed — address space and every stored word. A shallow-copied slice or
// shared row store fails this immediately.
func TestCloneIndependence(t *testing.T) {
	same := func(a, b *Machine) bool {
		return reflect.DeepEqual(*a.AS, *b.AS) && sameContents(t, a, b) && sameContents(t, b, a)
	}
	for _, seed := range []uint64{1, 7, 42} {
		orig, plain, shuf := buildPopulated(t, seed)
		twin, _, _ := buildPopulated(t, seed)
		clone := orig.Clone()
		mutateBurst(t, clone, plain, shuf, seed^0xDEAD)

		if !same(orig, twin) {
			t.Fatalf("seed %d: mutating the clone changed the original", seed)
		}
		if same(clone, orig) {
			t.Fatalf("seed %d: op burst left the clone identical — burst is not exercising state", seed)
		}
	}
}
