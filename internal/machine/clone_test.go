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

// cloneSpecs are the organisations TestCloneIndependence runs on. The
// second has two ranks of 2x16 rows, fewer than one row-directory chunk,
// so its modules end in a partial chunk.
var cloneSpecs = []addrmap.Spec{
	testSpec,
	{Channels: 1, Ranks: 2, Banks: 2, Rows: 16, Cols: 16, LineBytes: 64},
}

// physWord names one word of the physical chip layout.
type physWord struct{ channel, rank, bank, row, chipCol, chip int }

// tracked is a machine plus a plain map of the physical words its writes
// stored, worked out from the paper's layout rules (§3.2, §3.3) rather
// than from the module's own storage.
type tracked struct {
	t     *testing.T
	m     *Machine
	words map[physWord]uint64
}

// clone clones the machine and copies the map.
func (x *tracked) clone() *tracked {
	n := &tracked{t: x.t, m: x.m.Clone(), words: make(map[physWord]uint64, len(x.words))}
	for k, v := range x.words {
		n.words[k] = v
	}
	return n
}

// phys locates logical word l (chipColumn*Chips + word) of a's row: on
// shuffled pages the word sits on chip word XOR shuffle(chip column).
func (x *tracked) phys(a addrmap.Addr, l int) physWord {
	loc, err := x.m.Spec.Decompose(x.m.Spec.LineAddr(a))
	if err != nil {
		x.t.Fatal(err)
	}
	chips := x.m.GS.Chips
	cc, chip := l/chips, l%chips
	if x.m.AS.Flags(a).Shuffled {
		chip ^= gsdram.DefaultShuffle(x.m.GS.ShuffleStages)(cc)
	}
	return physWord{loc.Channel, loc.Rank, loc.Bank, loc.Row, cc, chip}
}

// lineWords returns the logical words a (line, pattern) access touches,
// in line-position order.
func (x *tracked) lineWords(a addrmap.Addr, patt gsdram.Pattern) []int {
	loc, err := x.m.Spec.Decompose(x.m.Spec.LineAddr(a))
	if err != nil {
		x.t.Fatal(err)
	}
	return x.m.GS.GatherIndices(patt, loc.Col)
}

func (x *tracked) writeWord(a addrmap.Addr, v uint64) {
	if err := x.m.WriteWord(a, v); err != nil {
		x.t.Fatal(err)
	}
	// A plain-pattern line holds logical words Col*Chips.. in order.
	word := int(a%addrmap.Addr(x.m.Spec.LineBytes)) / gsdram.WordBytes
	x.words[x.phys(a, x.lineWords(a, gsdram.DefaultPattern)[word])] = v
}

func (x *tracked) writeLine(a addrmap.Addr, patt gsdram.Pattern, line []uint64) {
	if err := x.m.WriteLine(a, patt, line); err != nil {
		x.t.Fatal(err)
	}
	for i, l := range x.lineWords(a, patt) {
		x.words[x.phys(a, l)] = line[i]
	}
}

// checkReadLine reads (a, patt) and compares every position with the map.
func (x *tracked) checkReadLine(a addrmap.Addr, patt gsdram.Pattern) {
	got := make([]uint64, x.m.GS.Chips)
	if err := x.m.ReadLine(a, patt, got); err != nil {
		x.t.Fatal(err)
	}
	for i, l := range x.lineWords(a, patt) {
		if want := x.words[x.phys(a, l)]; got[i] != want {
			x.t.Fatalf("ReadLine(%#x, %d) position %d = %#x, map %#x", uint64(a), patt, i, got[i], want)
		}
	}
}

// check compares every word the machine stores with the map, both ways:
// each word ForEachWord yields, in strictly ascending (bank, row, chip
// column, chip) order, must be the map's (0 when absent), every word of
// the map must be among them, and each must read back through ChipWord.
func (x *tracked) check(name string) {
	x.t.Helper()
	seen := 0
	x.m.ForEachModule(func(ch, rk int, mod *gsdram.Module) {
		g := mod.Geometry()
		last := -1
		mod.ForEachWord(func(bank, row, chipCol, chip int, v uint64) {
			pos := ((bank*g.Rows+row)*g.Cols+chipCol)*x.m.GS.Chips + chip
			if pos <= last {
				x.t.Fatalf("%s: ForEachWord visits bank%d row%d col%d chip%d out of order", name, bank, row, chipCol, chip)
			}
			last = pos
			want, ok := x.words[physWord{ch, rk, bank, row, chipCol, chip}]
			if v != want {
				x.t.Fatalf("%s: ch%d rank%d bank%d row%d col%d chip%d = %#x, map %#x", name, ch, rk, bank, row, chipCol, chip, v, want)
			}
			if ok {
				seen++
			}
		})
	})
	if seen != len(x.words) {
		x.t.Fatalf("%s: ForEachWord visits %d of the %d written words", name, seen, len(x.words))
	}
	for w, want := range x.words {
		got, err := x.m.Module(addrmap.Loc{Channel: w.channel, Rank: w.rank}).ChipWord(w.bank, w.row, w.chipCol, w.chip)
		if err != nil {
			x.t.Fatal(err)
		}
		if got != want {
			x.t.Fatalf("%s: ChipWord %+v = %#x, map %#x", name, w, got, want)
		}
	}
}

// buildPopulated returns a tracked machine with one plain and one
// pattern-7 region of 8 KB, plus the two region bases. Seed-derived data
// fills the first half of each region only, so a later write to the
// second half reaches a row the original never stored.
func buildPopulated(t *testing.T, spec addrmap.Spec, seed uint64) (*tracked, addrmap.Addr, addrmap.Addr) {
	t.Helper()
	m, err := New(spec, gsdram.GS844)
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
	x := &tracked{t: t, m: m, words: map[physWord]uint64{}}
	rng := sim.NewRand(seed)
	for i := 0; i < 256; i++ {
		x.writeWord(plain+addrmap.Addr(8*rng.Intn(512)), rng.Uint64())
		x.writeWord(shuf+addrmap.Addr(8*rng.Intn(512)), rng.Uint64())
	}
	return x, plain, shuf
}

// mutateBurst applies a seed-derived burst of random operations — word
// writes, line scatters and gathers with the default pattern or the
// page's pattern 7 (each gather checked against the map), and a fresh
// allocation — designed to touch every kind of machine state a shallow
// copy could alias.
func mutateBurst(x *tracked, plain, shuf addrmap.Addr, seed uint64) {
	x.t.Helper()
	rng := sim.NewRand(seed)
	line := make([]uint64, x.m.GS.Chips)
	for i := 0; i < 200; i++ {
		switch rng.Intn(4) {
		case 0:
			x.writeWord(plain+addrmap.Addr(8*rng.Intn(1024)), rng.Uint64())
		case 1:
			x.writeWord(shuf+addrmap.Addr(8*rng.Intn(1024)), rng.Uint64())
		case 2:
			for j := range line {
				line[j] = rng.Uint64()
			}
			x.writeLine(shuf+addrmap.Addr(64*rng.Intn(128)), gsdram.Pattern(7*rng.Intn(2)), line)
		default:
			x.checkReadLine(shuf+addrmap.Addr(64*rng.Intn(128)), gsdram.Pattern(7*rng.Intn(2)))
		}
	}
	// Allocation mutates the address space (bump pointer and flags slice).
	if _, err := x.m.AS.PattMalloc(4096, 3); err != nil {
		x.t.Fatal(err)
	}
}

// TestCloneIndependence: after a Clone, writes to either side — and to a
// clone of the clone — stay private to it. Every machine of the family
// is checked word for word against its own map of physical words, and
// the original's address space against a pristine twin built from the
// same seed. A shallow-copied slice or shared row store fails this
// immediately.
func TestCloneIndependence(t *testing.T) {
	for _, spec := range cloneSpecs {
		for _, seed := range []uint64{1, 7, 42} {
			orig, plain, shuf := buildPopulated(t, spec, seed)
			twin, _, _ := buildPopulated(t, spec, seed)
			clone := orig.clone()
			orig.check("original after Clone")
			mutateBurst(clone, plain, shuf, seed^0xDEAD)
			if !reflect.DeepEqual(*orig.m.AS, *twin.m.AS) {
				t.Fatalf("%+v seed %d: mutating the clone changed the original's address space", spec, seed)
			}
			orig.check("original after writes to its clone")

			mutateBurst(orig, plain, shuf, seed^0xBEEF)
			grand := clone.clone()
			mutateBurst(grand, plain, shuf, seed^0xF00D)
			mutateBurst(clone, plain, shuf, seed^0xCAFE)

			orig.check("original")
			clone.check("clone")
			grand.check("clone of the clone")
			if reflect.DeepEqual(clone.words, orig.words) || reflect.DeepEqual(grand.words, clone.words) {
				t.Fatalf("%+v seed %d: op bursts left two machines identical — bursts are not exercising state", spec, seed)
			}
		}
	}
}
