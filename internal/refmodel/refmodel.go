// Package refmodel is a timing-free architectural golden model of the
// GS-DRAM system, implemented independently from the cycle-level machine
// so the two can be diff-checked against each other on arbitrary access
// streams (internal/stress).
//
// Independence is the point, so every piece of translation math is
// written the other way around from the simulator:
//
//   - memory is a flat *logical* word space (addr -> value), not the
//     chip-major physical layout internal/gsdram stores. It is kept in
//     4 KB pages, each holding its words in address order next to the
//     page's §4.3 flags, but a page is storage only: every word is
//     addressed by its logical byte address and untouched words read 0;
//   - the §3.2 shuffling network is simulated literally, stage by stage
//     (Figure 4), instead of using the closed-form XOR permutation or the
//     precomputed gather-plan tables. The network is pure combinational
//     logic, so New runs that simulation once for each of its 2^s control
//     inputs and keeps the outputs as a truth table;
//   - the §3.3 Column Translation Logic widens chip IDs bit by bit (again
//     once per chip, in New) and applies (chipID AND pattern) XOR column
//     exactly as Figure 5 draws it;
//   - every access still walks CTL -> network -> address composition
//     itself: there is no per-(column, pattern) gather plan;
//   - address decomposition follows the documented field order of
//     internal/addrmap ([row|bank|rank|column|channel|offset]) by plain
//     integer division, not the simulator's precomputed shift/mask
//     decomposer;
//   - the caches carry *data*: pattern-extended tags over real words, so
//     a coherence bug in the two-patterns-per-page protocol (§4.1/§4.2)
//     manifests as an actually-stale loaded value, not just a wrong
//     counter.
//
// The model executes the same architectural operations as the machine —
// plain load/store of one word, pattload/pattstore of one cache line —
// and mirrors the memory system's protocol steps (overlap invalidation
// on stores, dirty-overlap flushing before other-pattern fetches,
// cross-core dirty probes) with zero notion of time.
package refmodel

import (
	"fmt"
	"slices"

	"gsdram/internal/addrmap"
	"gsdram/internal/gsdram"
)

// PageSize is the fixed page granularity of the model, matching the
// machine's pattmalloc (4 KB).
const PageSize = 4096

// wordsPerPage is the number of 8-byte words on one page.
const wordsPerPage = PageSize / gsdram.WordBytes

// Page is the per-page metadata of paper §4.3: the shuffle flag and the
// page's single alternate pattern.
type Page struct {
	Shuffled bool
	Alt      gsdram.Pattern
}

// CacheGeom describes one cache level of the golden model.
type CacheGeom struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// Config parameterises the model. Of gsdram.Params only the fields
// (chips, shuffle stages, pattern bits) and Validate are used; none of
// its translation methods are called, keeping the translation math
// independent.
type Config struct {
	Spec  addrmap.Spec
	GS    gsdram.Params
	Cores int
	L1    CacheGeom
	L2    CacheGeom
}

// Model is the golden architectural state: flat logical memory with its
// page flags, and data-carrying caches.
type Model struct {
	cfg    Config
	chips  int
	stages int
	pbits  int

	// perm[ctrl][chip] is the index of the cache-line word the shuffling
	// network routes to chip under control input ctrl: the network's
	// truth table, one row per control input, filled by netWordForChip.
	perm [][]int
	// wide[chip] is the chip ID widened to the pattern width, the CTL's
	// chip-ID input, filled by widenChipID.
	wide []int

	mem map[uint64]*memPage // page index -> page; absent = zero words and flags

	l1     []*modelCache
	l2     *modelCache
	caches []*modelCache // the L1s, then the L2: memsys's walk order

	// Scratch buffers of altCovering's gathers and of the overlap sets.
	gAddrs   []addrmap.Addr
	gLogical []int
	ovAddrs  []addrmap.Addr
}

// memPage is one page of flat logical memory: its words in address order
// and its flags, so a lookup that needs both makes one map access.
type memPage struct {
	flags Page
	words [wordsPerPage]uint64
}

// loc is a fully divided-out DRAM coordinate of one word.
type loc struct {
	ch, col, rank, bank, row, word int
}

// New builds an empty model.
func New(cfg Config) (*Model, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("refmodel: Cores must be positive, got %d", cfg.Cores)
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.GS.Validate(); err != nil {
		return nil, err
	}
	if cfg.Spec.LineBytes != cfg.GS.Chips*gsdram.WordBytes {
		return nil, fmt.Errorf("refmodel: spec line size %d != %d chips x %d bytes", cfg.Spec.LineBytes, cfg.GS.Chips, gsdram.WordBytes)
	}
	m := &Model{
		cfg:      cfg,
		chips:    cfg.GS.Chips,
		stages:   cfg.GS.ShuffleStages,
		pbits:    cfg.GS.PatternBits,
		mem:      make(map[uint64]*memPage),
		gAddrs:   make([]addrmap.Addr, cfg.GS.Chips),
		gLogical: make([]int, cfg.GS.Chips),
	}
	m.perm = make([][]int, 1<<m.stages)
	for ctrl := range m.perm {
		m.perm[ctrl] = m.netWordForChip(ctrl)
	}
	cbits := 0
	for c := m.chips; c > 1; c >>= 1 {
		cbits++
	}
	m.wide = make([]int, m.chips)
	for chip := range m.wide {
		m.wide[chip] = widenChipID(chip, cbits, m.pbits)
	}
	for i := 0; i < cfg.Cores; i++ {
		c, err := newModelCache(cfg.L1)
		if err != nil {
			return nil, err
		}
		m.l1 = append(m.l1, c)
	}
	l2, err := newModelCache(cfg.L2)
	if err != nil {
		return nil, err
	}
	m.l2 = l2
	m.caches = append(slices.Clip(m.l1), l2)
	return m, nil
}

// SetRegion tags the pages covering [base, base+size) with the given
// flags. base must be page-aligned, mirroring the allocator contract.
func (m *Model) SetRegion(base addrmap.Addr, size int, pg Page) error {
	if uint64(base)%PageSize != 0 {
		return fmt.Errorf("refmodel: region base %#x not page-aligned", uint64(base))
	}
	pages := (size + PageSize - 1) / PageSize
	for p := 0; p < pages; p++ {
		m.touch(base + addrmap.Addr(p*PageSize)).flags = pg
	}
	return nil
}

// pageOf returns the page holding a, or nil if nothing has touched it.
func (m *Model) pageOf(a addrmap.Addr) *memPage {
	return m.mem[uint64(a)/PageSize]
}

// touch returns the page holding a, adding a zero page if it is absent.
func (m *Model) touch(a addrmap.Addr) *memPage {
	pi := uint64(a) / PageSize
	p := m.mem[pi]
	if p == nil {
		p = new(memPage)
		m.mem[pi] = p
	}
	return p
}

// wordIndex is the index of a's word within its page.
func wordIndex(a addrmap.Addr) int {
	return int(uint64(a) % PageSize / gsdram.WordBytes)
}

// word returns the memory value of the word holding a.
func (m *Model) word(a addrmap.Addr) uint64 {
	if p := m.pageOf(a); p != nil {
		return p.words[wordIndex(a)]
	}
	return 0
}

// setWord stores v as the memory value of the word holding a.
func (m *Model) setWord(a addrmap.Addr, v uint64) {
	m.touch(a).words[wordIndex(a)] = v
}

// page returns the flags covering an address.
func (m *Model) page(a addrmap.Addr) Page {
	if p := m.pageOf(a); p != nil {
		return p.flags
	}
	return Page{}
}

// InitWord preloads a word directly into memory, bypassing the caches —
// the architectural analogue of population writes done before the
// measured program starts (both sides of the differential harness
// populate identically, caches cold).
func (m *Model) InitWord(a addrmap.Addr, v uint64) {
	m.setWord(a, v)
}

// PeekWord returns the current memory value of a word, ignoring caches.
// Call FlushCaches first to fold dirty cache data in.
func (m *Model) PeekWord(a addrmap.Addr) uint64 {
	return m.word(a)
}

// --- independent translation math ---------------------------------------

// locate splits a byte address into DRAM coordinates by plain integer
// division, following the documented addrmap field order
// MSB [ row | bank | rank | column | channel | line offset ] LSB.
func (m *Model) locate(a addrmap.Addr) loc {
	s := m.cfg.Spec
	x := uint64(a)
	var l loc
	l.word = int(x%uint64(s.LineBytes)) / gsdram.WordBytes
	x /= uint64(s.LineBytes)
	l.ch = int(x % uint64(s.Channels))
	x /= uint64(s.Channels)
	l.col = int(x % uint64(s.Cols))
	x /= uint64(s.Cols)
	l.rank = int(x % uint64(s.Ranks))
	x /= uint64(s.Ranks)
	l.bank = int(x % uint64(s.Banks))
	x /= uint64(s.Banks)
	l.row = int(x)
	return l
}

// compose is the inverse of locate.
func (m *Model) compose(l loc) addrmap.Addr {
	s := m.cfg.Spec
	line := ((((uint64(l.row)*uint64(s.Banks)+uint64(l.bank))*uint64(s.Ranks)+uint64(l.rank))*uint64(s.Cols))+uint64(l.col))*uint64(s.Channels) + uint64(l.ch)
	return addrmap.Addr(line*uint64(s.LineBytes) + uint64(l.word)*gsdram.WordBytes)
}

// lineOf truncates an address to its cache line.
func (m *Model) lineOf(a addrmap.Addr) addrmap.Addr {
	return a - a%addrmap.Addr(m.cfg.Spec.LineBytes)
}

// netWordForChip simulates the s-stage shuffling network of Figure 4
// literally on an identity line and returns, for each chip, the index of
// the cache-line word that lands on it under control input ctrl. This is
// the golden counterpart of the simulator's closed-form XOR permutation;
// New evaluates it once per control input into perm.
func (m *Model) netWordForChip(ctrl int) []int {
	line := make([]int, m.chips)
	for i := range line {
		line[i] = i
	}
	for stage := 1; stage <= m.stages; stage++ {
		if ctrl&(1<<(stage-1)) == 0 {
			continue
		}
		block := 1 << (stage - 1)
		for base := 0; base+2*block <= len(line); base += 2 * block {
			for i := 0; i < block; i++ {
				line[base+i], line[base+block+i] = line[base+block+i], line[base+i]
			}
		}
	}
	return line
}

// chipForWord inverts the network by search: the chip on which word
// index w of a line lands under control input ctrl.
func (m *Model) chipForWord(w, ctrl int) int {
	for chip, word := range m.perm[ctrl] {
		if word == w {
			return chip
		}
	}
	panic("refmodel: shuffling network is not a permutation")
}

// shuffleCtrl is the default shuffling function: the s least significant
// bits of the column ID (§3.2).
func (m *Model) shuffleCtrl(col int) int {
	return col % (1 << m.stages)
}

// widenChipID widens a chip ID of cbits physical bits to the pattern
// width pbits by repeating those bits (paper §6.2). The wide ID is
// assembled bit by bit, unlike the simulator's shift-and-or loop.
func widenChipID(chip, cbits, pbits int) int {
	id := 0
	for i := 0; i < pbits; i++ {
		if cbits > 0 && chip>>(i%cbits)&1 == 1 {
			id |= 1 << i
		}
	}
	return id
}

// ctl is the per-chip Column Translation Logic of Figure 5:
// (chipID AND pattern) XOR column, reading the widened chip ID from wide.
func (m *Model) ctl(chip int, patt gsdram.Pattern, col int) int {
	p := int(patt) % (1 << m.pbits)
	return (m.wide[chip] & p) ^ col
}

// gather fills addrs and logical (Chips entries each) for a READ/WRITE
// of (line address, pattern): the word addresses the command touches and
// their within-row logical word indices, both in ascending logical
// order — the golden equivalent of the simulator's gather plans. The
// page flags of the issued address select whether the target data was
// stored shuffled, mirroring the machine's per-access flag lookup.
func (m *Model) gather(a addrmap.Addr, patt gsdram.Pattern, addrs []addrmap.Addr, logical []int) {
	l := m.locate(m.lineOf(a))
	shuffled := m.page(a).Shuffled
	for k := 0; k < m.chips; k++ {
		lc := m.ctl(k, patt, l.col)
		w := k
		if shuffled {
			w = m.perm[m.shuffleCtrl(lc)][k]
		}
		wl := l
		wl.col, wl.word = lc, w
		wa, lg := m.compose(wl), lc*m.chips+w
		// Insertion sort by logical index. The chips of one command
		// never share a word, so the indices are distinct and the order
		// is unique.
		i := k
		for ; i > 0 && logical[i-1] > lg; i-- {
			addrs[i], logical[i] = addrs[i-1], logical[i-1]
		}
		addrs[i], logical[i] = wa, lg
	}
}

// ChipWord returns the value the physical chip layout must hold at
// (channel, rank, bank, row, chipCol, chip): the flat-memory word whose
// logical position the shuffling network routes to that chip. It is the
// expectation the differential harness compares Module.ChipWord against.
// Call FlushCaches first for an end-of-program view.
func (m *Model) ChipWord(channel, rank, bank, row, chipCol, chip int) uint64 {
	la := m.compose(loc{ch: channel, rank: rank, bank: bank, row: row, col: chipCol})
	// A line never straddles a page, so one lookup serves the page's
	// flags and the word, which sits w words past the line's first.
	p := m.pageOf(la)
	if p == nil {
		return 0
	}
	w := chip
	if p.flags.Shuffled {
		w = m.perm[m.shuffleCtrl(chipCol)][chip]
	}
	return p.words[wordIndex(la)+w]
}

// ChipLocation inverts ChipWord's mapping: the (channel, rank, bank, row,
// chipCol, chip) coordinate that stores the word at byte address a.
func (m *Model) ChipLocation(a addrmap.Addr) (channel, rank, bank, row, chipCol, chip int) {
	l := m.locate(a)
	chip = l.word
	if m.page(a).Shuffled {
		chip = m.chipForWord(l.word, m.shuffleCtrl(l.col))
	}
	return l.ch, l.rank, l.bank, l.row, l.col, chip
}

// overlaps appends to dst[:0] the addresses of the other-pattern lines
// sharing words with (line, patt) on a two-pattern page whose alternate
// pattern is alt (paper §4.1), and returns them with that other pattern.
// Unlike the simulator's closed form, the default-pattern side searches
// the column group for patterned lines whose gather covers the accessed
// column.
func (m *Model) overlaps(dst []addrmap.Addr, line addrmap.Addr, patt, alt gsdram.Pattern) (addrs []addrmap.Addr, other gsdram.Pattern) {
	addrs = dst[:0]
	var nz gsdram.Pattern
	if patt == 0 {
		if alt == 0 {
			return addrs, 0
		}
		nz, other = alt, alt
	} else {
		nz, other = patt, 0
	}
	l := m.locate(m.lineOf(line))
	if patt != 0 {
		// A patterned line overlaps the default lines of the columns its
		// chips access.
		for k := 0; k < m.chips; k++ {
			wl := l
			wl.col, wl.word = m.ctl(k, nz, l.col), 0
			if oa := m.compose(wl); !slices.Contains(addrs, oa) {
				addrs = append(addrs, oa)
			}
		}
		return addrs, other
	}
	// A default line overlaps the patterned lines whose gather set covers
	// its column: search every issued column of the aligned group.
	group := 1 << m.pbits
	base := l.col - l.col%group
	for c := base; c < base+group && c < m.cfg.Spec.Cols; c++ {
		for k := 0; k < m.chips; k++ {
			if m.ctl(k, nz, c) == l.col {
				wl := l
				wl.col, wl.word = c, 0
				addrs = append(addrs, m.compose(wl))
				break
			}
		}
	}
	return addrs, other
}
