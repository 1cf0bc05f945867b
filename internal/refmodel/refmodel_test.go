package refmodel

import (
	"fmt"
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
	"gsdram/internal/machine"
)

// spec422 is a tiny organisation for GS-DRAM(4,2,2): 32-byte lines, one
// channel, so the line at column c of bank 0, row 0 sits at byte c*32.
var spec422 = addrmap.Spec{Channels: 1, Ranks: 1, Banks: 8, Rows: 8, Cols: 16, LineBytes: 32}

// spec844 is the equivalent for GS-DRAM(8,3,3) with 64-byte lines.
var spec844 = addrmap.Spec{Channels: 1, Ranks: 1, Banks: 8, Rows: 8, Cols: 16, LineBytes: 64}

func newModel(t *testing.T, spec addrmap.Spec, gs gsdram.Params, cores int) *Model {
	t.Helper()
	lb := spec.LineBytes
	m, err := New(Config{
		Spec:  spec,
		GS:    gs,
		Cores: cores,
		L1:    CacheGeom{SizeBytes: 16 * lb, Ways: 2, LineBytes: lb},
		L2:    CacheGeom{SizeBytes: 64 * lb, Ways: 4, LineBytes: lb},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// valueAt tags each word with its address so any misrouted gather is
// visible in the loaded values.
func valueAt(a addrmap.Addr) uint64 { return 0xbeef0000 + uint64(a) }

// TestGatherWorkedExamples replays the paper's §3.2/§3.3 examples: the
// logical word indices a patterned READ returns, per Figure 7, plus the
// identity behaviour of pattern 0.
func TestGatherWorkedExamples(t *testing.T) {
	cases := []struct {
		name string
		spec addrmap.Spec
		gs   gsdram.Params
		col  int
		patt gsdram.Pattern
		want []int
	}{
		// GS-DRAM(4,2,2), pattern 1 = stride-2 pair gather (§3.2's example).
		{"gs422/patt1/col0", spec422, gsdram.GS422, 0, 1, []int{0, 2, 4, 6}},
		{"gs422/patt1/col1", spec422, gsdram.GS422, 1, 1, []int{1, 3, 5, 7}},
		// GS-DRAM(4,2,2), pattern 3 = stride-4 gather (Figure 7).
		{"gs422/patt3/col0", spec422, gsdram.GS422, 0, 3, []int{0, 4, 8, 12}},
		{"gs422/patt3/col1", spec422, gsdram.GS422, 1, 3, []int{1, 5, 9, 13}},
		{"gs422/patt3/col2", spec422, gsdram.GS422, 2, 3, []int{2, 6, 10, 14}},
		// GS-DRAM(8,3,3), pattern 7 = stride-8 gather (§4.2's in-memory DB
		// example: one field from eight tuples).
		{"gs844/patt7/col0", spec844, gsdram.GS844, 0, 7, []int{0, 8, 16, 24, 32, 40, 48, 56}},
		{"gs844/patt7/col5", spec844, gsdram.GS844, 5, 7, []int{5, 13, 21, 29, 37, 45, 53, 61}},
		// Pattern 0 is the identity: an ordinary cache-line read.
		{"gs422/patt0/col3", spec422, gsdram.GS422, 3, 0, []int{12, 13, 14, 15}},
		{"gs844/patt0/col2", spec844, gsdram.GS844, 2, 0, []int{16, 17, 18, 19, 20, 21, 22, 23}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newModel(t, tc.spec, tc.gs, 1)
			alt := tc.patt
			if alt == 0 {
				alt = 1
			}
			if err := m.SetRegion(0, PageSize, Page{Shuffled: true, Alt: alt}); err != nil {
				t.Fatal(err)
			}
			// Populate bank 0 row 0 (columns 0.. at byte col*LineBytes).
			lb := tc.spec.LineBytes
			for b := 0; b < lb*tc.spec.Cols; b += 8 {
				m.InitWord(addrmap.Addr(b), valueAt(addrmap.Addr(b)))
			}
			lineAddr := addrmap.Addr(tc.col * lb)
			dst := make([]uint64, tc.gs.Chips)
			logical, err := m.LoadLine(0, lineAddr, tc.patt, dst)
			if err != nil {
				t.Fatalf("LoadLine: %v", err)
			}
			for i, want := range tc.want {
				if logical[i] != want {
					t.Fatalf("logical[%d] = %d, want %d (full: %v)", i, logical[i], want, logical)
				}
				// Logical index l within bank 0 row 0 lives at byte
				// (l/chips)*lineBytes + (l%chips)*8.
				wa := addrmap.Addr((want/tc.gs.Chips)*lb + (want%tc.gs.Chips)*8)
				if dst[i] != valueAt(wa) {
					t.Fatalf("dst[%d] = %#x, want value of word %#x (%#x)", i, dst[i], uint64(wa), valueAt(wa))
				}
			}
		})
	}
}

// TestChipWordLayout checks the physical chip layout of Figure 6: on a
// shuffled page, word w of the line at column c lands on chip
// w XOR (c mod 2^s); on an unshuffled page the layout is the identity.
func TestChipWordLayout(t *testing.T) {
	m := newModel(t, spec844, gsdram.GS844, 1)
	if err := m.SetRegion(0, PageSize, Page{Shuffled: true, Alt: 7}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 64*8; b += 8 {
		m.InitWord(addrmap.Addr(b), valueAt(addrmap.Addr(b)))
	}
	for col := 0; col < 8; col++ {
		for w := 0; w < 8; w++ {
			a := addrmap.Addr(col*64 + w*8)
			ch, rank, bank, row, chipCol, chip := m.ChipLocation(a)
			if ch != 0 || rank != 0 || bank != 0 || row != 0 || chipCol != col {
				t.Fatalf("ChipLocation(%#x) = ch%d r%d b%d row%d col%d", uint64(a), ch, rank, bank, row, chipCol)
			}
			if want := w ^ (col & 7); chip != want {
				t.Fatalf("word %d of column %d on chip %d, want %d", w, col, chip, want)
			}
			if got := m.ChipWord(0, 0, 0, 0, chipCol, chip); got != valueAt(a) {
				t.Fatalf("ChipWord(col %d, chip %d) = %#x, want %#x", chipCol, chip, got, valueAt(a))
			}
		}
	}
	// Unshuffled region: identity placement.
	m2 := newModel(t, spec844, gsdram.GS844, 1)
	m2.InitWord(8, 42)
	if _, _, _, _, _, chip := m2.ChipLocation(8); chip != 1 {
		t.Fatalf("unshuffled word 1 on chip %d, want 1", chip)
	}
	if got := m2.ChipWord(0, 0, 0, 0, 0, 1); got != 42 {
		t.Fatalf("unshuffled ChipWord = %d, want 42", got)
	}
}

// gatherMismatch loads every line of a pattmalloc'd page through both of
// its patterns, on the machine and on a model (passed to tamper first,
// if non-nil), and describes the first position whose logical index or
// value differs; it returns "" when the two agree everywhere.
func gatherMismatch(t *testing.T, spec addrmap.Spec, gs gsdram.Params, alt gsdram.Pattern, tamper func(*Model)) string {
	t.Helper()
	mach, err := machine.New(spec, gs)
	if err != nil {
		t.Fatal(err)
	}
	base, err := mach.AS.PattMalloc(PageSize, alt)
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(t, spec, gs, 1)
	if tamper != nil {
		tamper(m)
	}
	if err := m.SetRegion(base, PageSize, Page{Shuffled: true, Alt: alt}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < PageSize; b += 8 {
		a := base + addrmap.Addr(b)
		if err := mach.WriteWord(a, valueAt(a)); err != nil {
			t.Fatal(err)
		}
		m.InitWord(a, valueAt(a))
	}
	simVals := make([]uint64, gs.Chips)
	refVals := make([]uint64, gs.Chips)
	for off := 0; off < PageSize; off += spec.LineBytes {
		a := base + addrmap.Addr(off)
		for _, patt := range []gsdram.Pattern{0, alt} {
			simIdx, err := mach.ReadLineIndices(a, patt, simVals)
			if err != nil {
				t.Fatal(err)
			}
			refIdx, err := m.LoadLine(0, a, patt, refVals)
			if err != nil {
				t.Fatal(err)
			}
			for i := range simVals {
				if simIdx[i] != refIdx[i] || simVals[i] != refVals[i] {
					return fmt.Sprintf("line %#x patt %d pos %d: sim (idx %d, %#x) vs ref (idx %d, %#x)",
						uint64(a), patt, i, simIdx[i], simVals[i], refIdx[i], refVals[i])
				}
			}
		}
	}
	return ""
}

// TestModelVsMachineGather diff-checks the model's gather math — built
// from a literal network simulation and div/mod address splitting —
// against the machine's closed-form plan tables, over every column and
// both patterns of a pattmalloc'd region.
func TestModelVsMachineGather(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec addrmap.Spec
		gs   gsdram.Params
		alt  gsdram.Pattern
	}{
		{"gs422/alt1", spec422, gsdram.GS422, 1},
		{"gs422/alt3", spec422, gsdram.GS422, 3},
		{"gs844/alt7", spec844, gsdram.GS844, 7},
		{"gs844/alt3", spec844, gsdram.GS844, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if d := gatherMismatch(t, tc.spec, tc.gs, tc.alt, nil); d != "" {
				t.Fatal(d)
			}
		})
	}
}

// TestTruthTablesAreChecked corrupts the model's circuit truth tables —
// two entries of one row of the network's, or one widened chip ID of the
// CTL's — and requires the model-vs-machine gather comparison to report
// it: the tables New builds are on the path the oracle checks with.
func TestTruthTablesAreChecked(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(*Model)
	}{
		{"perm", func(m *Model) { row := m.perm[1]; row[0], row[1] = row[1], row[0] }},
		{"wide", func(m *Model) { m.wide[1] ^= 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if d := gatherMismatch(t, spec844, gsdram.GS844, 7, tc.tamper); d == "" {
				t.Fatal("corrupted truth table went unnoticed")
			} else {
				t.Log(d)
			}
		})
	}
}

// TestTwoPatternCoherenceVisibility checks the §4.1 protocol on data: a
// store through one pattern must be visible to a subsequent load through
// the other pattern, in both directions, even while both lines are
// cached.
func TestTwoPatternCoherenceVisibility(t *testing.T) {
	m := newModel(t, spec844, gsdram.GS844, 1)
	const alt = gsdram.Pattern(7)
	if err := m.SetRegion(0, PageSize, Page{Shuffled: true, Alt: alt}); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 64*8; b += 8 {
		m.InitWord(addrmap.Addr(b), valueAt(addrmap.Addr(b)))
	}
	dst := make([]uint64, 8)

	// Cache both views of the first tuple group.
	if _, err := m.LoadLine(0, 0, alt, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadWord(0, 0); err != nil {
		t.Fatal(err)
	}

	// Plain store to word 0 (column 0) → the patterned line gathering
	// word 0 must observe it.
	if err := m.StoreWord(0, 0, 111); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadLine(0, 0, alt, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 111 {
		t.Fatalf("patterned load after plain store: dst[0] = %d, want 111", dst[0])
	}

	// Patterned store → plain loads of every donor column must observe
	// their word. Position i of pattern-7 column 0 is word 0 of column i.
	vals := []uint64{200, 201, 202, 203, 204, 205, 206, 207}
	if err := m.StoreLine(0, 0, alt, vals); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 8; c++ {
		v, err := m.LoadWord(0, addrmap.Addr(c*64))
		if err != nil {
			t.Fatal(err)
		}
		if v != vals[c] {
			t.Fatalf("plain load of column %d word 0 = %d, want %d", c, v, vals[c])
		}
	}

	// After a flush, flat memory holds the patterned stores too.
	m.FlushCaches()
	if got := m.PeekWord(addrmap.Addr(3 * 64)); got != 203 {
		t.Fatalf("PeekWord after flush = %d, want 203", got)
	}
}

// TestOverlapSetsMatchBothDirections checks that the model's searched
// default-pattern overlap set inverts the formula-based patterned set:
// line A (patterned) overlaps line B (default) iff B overlaps A.
func TestOverlapSetsMatchBothDirections(t *testing.T) {
	m := newModel(t, spec844, gsdram.GS844, 1)
	const alt = gsdram.Pattern(3)
	if err := m.SetRegion(0, PageSize, Page{Shuffled: true, Alt: alt}); err != nil {
		t.Fatal(err)
	}
	lb := spec844.LineBytes
	contains := func(s []addrmap.Addr, a addrmap.Addr) bool {
		for _, x := range s {
			if x == a {
				return true
			}
		}
		return false
	}
	for c := 0; c < spec844.Cols; c++ {
		a := addrmap.Addr(c * lb)
		pattOv, other := m.overlaps(nil, a, alt, alt)
		if other != 0 {
			t.Fatalf("patterned overlap partner pattern = %d, want 0", other)
		}
		for _, oa := range pattOv {
			defOv, defOther := m.overlaps(nil, oa, 0, alt)
			if defOther != alt {
				t.Fatalf("default overlap partner pattern = %d, want %d", defOther, alt)
			}
			if !contains(defOv, a) {
				t.Fatalf("line %#x overlaps %#x, but not vice versa (%v)", uint64(a), uint64(oa), defOv)
			}
		}
	}
}
