// Package machine bundles the functional side of the simulated system:
// the vm address space (pattmalloc + page flags), the physical address
// mapping, and the GS-DRAM modules holding the actual data. Workloads use
// a Machine for data correctness while the event-driven timing model
// (internal/memsys + internal/cpu) accounts for time, bandwidth and
// energy.
package machine

import (
	"fmt"
	"math/bits"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
	"gsdram/internal/vm"
)

// Machine is the functional memory of the simulated system.
type Machine struct {
	Spec addrmap.Spec
	GS   gsdram.Params
	AS   *vm.AddressSpace

	// mods[channel][rank] is the GS-DRAM module (one per rank).
	mods [][]*gsdram.Module

	// idxBuf is GatherAddr's scratch buffer for GatherIndicesInto, so the
	// per-candidate index computation does not allocate. Machines are not
	// safe for concurrent use; each simulation run builds its own.
	idxBuf []int

	// vecIdx is the GatherV/ScatterV scratch buffer of per-run logical
	// indices, reused across calls so the indexed functional path does not
	// allocate in steady state.
	vecIdx []int

	// Precomputed decomposition of Spec (shift amounts, masks, address
	// width), so the per-word locate on the functional data path is pure
	// bit arithmetic. Derived once in New; Spec must not be mutated after.
	dec decomposer
}

// decomposer holds the field shifts and masks of one addrmap.Spec.
type decomposer struct {
	lineShift, chShift, colShift, rankShift, bankShift uint
	chMask, colMask, rankMask, bankMask                uint64
	width                                              uint
	lineMask                                           uint64
	wordShift                                          uint
}

func newDecomposer(s addrmap.Spec) decomposer {
	l2 := func(v int) uint { return uint(bits.TrailingZeros(uint(v))) }
	d := decomposer{
		lineShift: l2(s.LineBytes),
		chShift:   l2(s.Channels),
		colShift:  l2(s.Cols),
		rankShift: l2(s.Ranks),
		bankShift: l2(s.Banks),
		chMask:    uint64(s.Channels - 1),
		colMask:   uint64(s.Cols - 1),
		rankMask:  uint64(s.Ranks - 1),
		bankMask:  uint64(s.Banks - 1),
		lineMask:  uint64(s.LineBytes - 1),
		wordShift: l2(gsdram.WordBytes),
	}
	d.width = d.lineShift + d.chShift + d.colShift + d.rankShift + d.bankShift + l2(s.Rows)
	return d
}

// decompose is the precomputed equivalent of Spec.Decompose(Spec.LineAddr(a)).
func (d *decomposer) decompose(a addrmap.Addr) (addrmap.Loc, error) {
	if uint64(a)>>d.width != 0 {
		return addrmap.Loc{}, fmt.Errorf("addrmap: address %#x out of range", uint64(a))
	}
	v := uint64(a) >> d.lineShift
	var l addrmap.Loc
	l.Channel = int(v & d.chMask)
	v >>= d.chShift
	l.Col = int(v & d.colMask)
	v >>= d.colShift
	l.Rank = int(v & d.rankMask)
	v >>= d.rankShift
	l.Bank = int(v & d.bankMask)
	v >>= d.bankShift
	l.Row = int(v)
	return l, nil
}

// New builds a machine with the given organisation. The page size is 4 KB.
func New(spec addrmap.Spec, gs gsdram.Params) (*Machine, error) {
	if spec.LineBytes != gs.LineBytes() {
		return nil, fmt.Errorf("machine: spec line size %d != GS-DRAM line size %d", spec.LineBytes, gs.LineBytes())
	}
	as, err := vm.New(spec, gs, 4096)
	if err != nil {
		return nil, err
	}
	m := &Machine{Spec: spec, GS: gs, AS: as, dec: newDecomposer(spec)}
	geom := gsdram.Geometry{Banks: spec.Banks, Rows: spec.Rows, Cols: spec.Cols}
	mods, err := gsdram.NewModules(gs, geom, nil, spec.Channels*spec.Ranks)
	if err != nil {
		return nil, err
	}
	for c := 0; c < spec.Channels; c++ {
		m.mods = append(m.mods, mods[c*spec.Ranks:(c+1)*spec.Ranks])
	}
	return m, nil
}

// Default returns a machine with the paper's Table 1 organisation.
func Default() (*Machine, error) {
	return New(addrmap.Default, gsdram.GS844)
}

// Clone returns an independent copy of the machine: address-space flags
// are copied and every module is cloned (see gsdram.Module.Clone, which
// also freezes the original's), so two clones never observe each other's
// writes. A clone of a populated machine is bit-identical to rebuilding
// and repopulating one.
func (m *Machine) Clone() *Machine {
	n := &Machine{Spec: m.Spec, GS: m.GS, AS: m.AS.Clone(), dec: m.dec}
	n.mods = make([][]*gsdram.Module, len(m.mods))
	for c, rank := range m.mods {
		nr := make([]*gsdram.Module, len(rank))
		for r, mod := range rank {
			nr[r] = mod.Clone()
		}
		n.mods[c] = nr
	}
	return n
}

// Module returns the module backing an address.
func (m *Machine) Module(l addrmap.Loc) *gsdram.Module {
	return m.mods[l.Channel][l.Rank]
}

// ForEachModule visits every GS-DRAM module of the machine in
// deterministic (channel, rank) order — the state-extraction hook the
// differential verification harness uses to compare physical memory
// contents against the golden model.
func (m *Machine) ForEachModule(fn func(channel, rank int, mod *gsdram.Module)) {
	for c, rank := range m.mods {
		for r, mod := range rank {
			fn(c, r, mod)
		}
	}
}

// locate decomposes a byte address, returning its location and the 8-byte
// word offset within the cache line.
func (m *Machine) locate(a addrmap.Addr) (addrmap.Loc, int, error) {
	loc, err := m.dec.decompose(a)
	if err != nil {
		return addrmap.Loc{}, 0, err
	}
	word := int((uint64(a) & m.dec.lineMask) >> m.dec.wordShift)
	return loc, word, nil
}

// WriteWord stores an 8-byte word at a (word-aligned) address, honouring
// the page's shuffle flag. The decomposition is open-coded (rather than
// calling locate) because this is the single hottest function of the
// functional data path — every workload setup and every transaction goes
// through it word by word.
func (m *Machine) WriteWord(a addrmap.Addr, v uint64) error {
	d := &m.dec
	if uint64(a)>>d.width != 0 {
		return fmt.Errorf("machine: address %#x out of range", uint64(a))
	}
	x := uint64(a) >> d.lineShift
	ch := int(x & d.chMask)
	x >>= d.chShift
	col := int(x & d.colMask)
	x >>= d.colShift
	rank := int(x & d.rankMask)
	x >>= d.rankShift
	bank := int(x & d.bankMask)
	row := int(x >> d.bankShift)
	word := int((uint64(a) & d.lineMask) >> d.wordShift)
	sh := m.AS.Flags(a).Shuffled
	return m.mods[ch][rank].WriteWord(bank, row, col*m.GS.Chips+word, sh, v)
}

// ReadWord loads the 8-byte word at a (word-aligned) address.
func (m *Machine) ReadWord(a addrmap.Addr) (uint64, error) {
	d := &m.dec
	if uint64(a)>>d.width != 0 {
		return 0, fmt.Errorf("machine: address %#x out of range", uint64(a))
	}
	x := uint64(a) >> d.lineShift
	ch := int(x & d.chMask)
	x >>= d.chShift
	col := int(x & d.colMask)
	x >>= d.colShift
	rank := int(x & d.rankMask)
	x >>= d.rankShift
	bank := int(x & d.bankMask)
	row := int(x >> d.bankShift)
	word := int((uint64(a) & d.lineMask) >> d.wordShift)
	sh := m.AS.Flags(a).Shuffled
	return m.mods[ch][rank].ReadWord(bank, row, col*m.GS.Chips+word, sh)
}

// ReadLine gathers the cache line at address a with the given pattern,
// after validating the access against the page flags (paper §4.1's
// two-pattern restriction).
func (m *Machine) ReadLine(a addrmap.Addr, patt gsdram.Pattern, dst []uint64) error {
	if err := m.AS.CheckAccess(a, patt); err != nil {
		return err
	}
	loc, _, err := m.locate(a)
	if err != nil {
		return err
	}
	sh := m.AS.Flags(a).Shuffled
	_, err = m.Module(loc).ReadLine(loc.Bank, loc.Row, loc.Col, patt, sh, dst)
	return err
}

// ReadLineIndices is ReadLine, additionally returning the within-row
// logical word indices each position of dst was gathered from (ascending,
// as in Figure 7). The returned slice aliases the module's precomputed
// plan table: callers must not modify it, and it is only valid while the
// machine is alive. It is the hook the differential verification harness
// uses to check the CTL algebra, not just the gathered values.
func (m *Machine) ReadLineIndices(a addrmap.Addr, patt gsdram.Pattern, dst []uint64) ([]int, error) {
	if err := m.AS.CheckAccess(a, patt); err != nil {
		return nil, err
	}
	loc, _, err := m.locate(a)
	if err != nil {
		return nil, err
	}
	sh := m.AS.Flags(a).Shuffled
	return m.Module(loc).ReadLine(loc.Bank, loc.Row, loc.Col, patt, sh, dst)
}

// WriteLine scatters a cache line to address a with the given pattern.
func (m *Machine) WriteLine(a addrmap.Addr, patt gsdram.Pattern, line []uint64) error {
	if err := m.AS.CheckAccess(a, patt); err != nil {
		return err
	}
	loc, _, err := m.locate(a)
	if err != nil {
		return err
	}
	sh := m.AS.Flags(a).Shuffled
	return m.Module(loc).WriteLine(loc.Bank, loc.Row, loc.Col, patt, sh, line)
}

// GatherAddr returns the cache-line address that, read with pattern patt,
// contains the word at logical byte address `target` at gather position
// pos — i.e. the address a pattload must use. It is the software-side
// address computation of paper §4.2's example (Figure 8): for a stride-8
// scan of field f, the gathered line for tuple group g is at column
// 8*g + f of the row.
//
// The computation inverts GatherIndices: for the row containing target,
// find the (column, position) whose gathered logical index equals the
// target's word index.
func (m *Machine) GatherAddr(target addrmap.Addr, patt gsdram.Pattern) (lineAddr addrmap.Addr, pos int, err error) {
	loc, word, err := m.locate(target)
	if err != nil {
		return 0, 0, err
	}
	logical := loc.Col*m.GS.Chips + word
	// The gathered line's issued column replaces the pattern-masked bits:
	// issued col C gathers chip k from column (k&patt)^C; the word with
	// logical index l = col*Chips + w came from chip w^(col&maskS) = k, so
	// C = (k&patt)^col. Search the at-most-Chips candidates.
	for k := 0; k < m.GS.Chips; k++ {
		c := (k & int(patt)) ^ loc.Col
		idx := m.GS.GatherIndicesInto(patt, c, m.idxBuf[:0])
		m.idxBuf = idx
		for p, l := range idx {
			if l == logical {
				lloc := loc
				lloc.Col = c
				return m.Spec.Compose(lloc), p, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("machine: word %#x unreachable with pattern %d", uint64(target), patt)
}
