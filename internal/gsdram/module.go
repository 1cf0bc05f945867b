package gsdram

import (
	"fmt"
	"math/bits"
	"slices"

	"gsdram/internal/hashtab"
)

// Geometry describes the storage organisation of a rank as seen by the
// memory controller: banks × rows × columns, where one column holds one
// cache line (Chips × 8 bytes) spread across the chips.
type Geometry struct {
	Banks int // banks per rank
	Rows  int // rows per bank
	Cols  int // cache lines per row (per rank); must be a power of two
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.Banks <= 0 || g.Rows <= 0 || g.Cols <= 0 {
		return fmt.Errorf("gsdram: geometry dimensions must be positive, got %+v", g)
	}
	if g.Cols&(g.Cols-1) != 0 {
		return fmt.Errorf("gsdram: Cols must be a power of two, got %d", g.Cols)
	}
	return nil
}

// Lines returns the total number of cache lines the geometry stores.
func (g Geometry) Lines() int { return g.Banks * g.Rows * g.Cols }

// Module is a functional model of a GS-DRAM module: it stores data exactly
// as the shuffled chips would and serves reads/writes for any (column,
// pattern) combination. One Module models one rank.
//
// The module enforces the paper's system contract (§4.3): data structures
// opt in to shuffling per write, mirroring the per-page shuffle flag. A
// patterned (non-zero pattern) access over unshuffled data would return
// words from the wrong cache lines, exactly as real GS-DRAM would; the
// Module permits it so tests can demonstrate the failure mode, but the OS
// layer (internal/vm) only issues patterned accesses to shuffled pages.
type Module struct {
	params  Params
	geom    Geometry
	shuffle ShuffleFunc

	// chunks is the rank's row directory: row key bank*Rows+row lives at
	// chunks[key>>chunkShift][key&chunkMask]. A chunk is allocated on the
	// first write into any of its chunkRows rows and a row on the first
	// write into it, so an empty Table 1 rank (262144 rows) costs a
	// 4096-pointer directory, and a module costs what it stores. Within a
	// row, words are indexed by chipColumn*Chips + chip — each chip's local
	// column address — so the layout matches the physical chips bit for
	// bit. Untouched rows read as zero, like freshly initialised DRAM in
	// the model.
	chunks []*rowChunk

	// frozen marks that chunks, and every row it holds, are shared with a
	// Clone sibling and must not be written. Clone sets it on both sides
	// and nothing clears it; a frozen module's writes go to overlay.
	frozen bool

	// overlay holds the words a frozen module has written, keyed by
	// wordKey: the physical word's bank, row, chip column and chip. While
	// it is non-empty, every read consults it before the row directory. A
	// cloned machine therefore costs what its run writes, a table slot
	// per written word, not a copy of each row it writes to.
	overlay hashtab.Table[uint64]

	// plans is the precomputed gather-plan table, indexed by
	// ((shuffledBit*patterns)+pattern)*Cols + column. It is built once at
	// construction (the software analogue of the CTL being pure
	// combinational logic), so the per-command path never allocates, and
	// is never written after: the modules NewModules builds together, and
	// every Clone, share one table. For
	// configurations whose (pattern x column) space is too large to
	// enumerate, plans is nil and planCache memoises plans on demand.
	plans     []gatherPlan
	planCache map[planKey]*gatherPlan

	// chipShift/chipMask precompute the word-index split for the power-of-
	// two chip count, avoiding a division per functional word access.
	chipShift uint
	chipMask  int
	// rowShift is log2(Cols*Chips): a wordKey holds the row key above
	// rowShift bits of word index.
	rowShift uint
}

// The row directory's chunks hold chunkRows rows each.
const (
	chunkShift = 6
	chunkRows  = 1 << chunkShift
	chunkMask  = chunkRows - 1
)

// rowChunk is one directory entry: chunkRows rows, nil until written.
type rowChunk [chunkRows][]uint64

// planKey identifies a cached gather plan in the lazy fallback.
type planKey struct {
	patt     Pattern
	col      int
	shuffled bool
}

// maxDensePlans bounds the precomputed plan table: 2 x patterns x columns
// entries. Every configuration used by the paper (and the experiment
// suite) is far below this; only exotic wide-pattern setups fall back to
// the lazy cache.
const maxDensePlans = 1 << 16

// NewModule returns a zero-filled module with the paper's default
// shuffling function. It panics on invalid parameters, which are
// programmer errors.
func NewModule(p Params, g Geometry) *Module {
	m, err := NewModuleFunc(p, g, nil)
	if err != nil {
		panic(err)
	}
	return m
}

// NewModuleFunc returns a module with a programmable shuffling function
// (paper §6.1). A nil fn selects the default column-LSB function.
func NewModuleFunc(p Params, g Geometry, fn ShuffleFunc) (*Module, error) {
	mods, err := NewModules(p, g, fn, 1)
	if err != nil {
		return nil, err
	}
	return mods[0], nil
}

// NewModules returns n zero-filled modules of one organisation — the
// ranks of a machine — as NewModuleFunc would build them one by one,
// except that they share one gather-plan table. The table depends only
// on p, g.Cols and fn, and is immutable once built, so it is computed
// once for all n modules.
func NewModules(p Params, g Geometry, fn ShuffleFunc, n int) ([]*Module, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("gsdram: module count must be positive, got %d", n)
	}
	if fn == nil {
		fn = DefaultShuffle(p.ShuffleStages)
	}
	proto := Module{
		params:    p,
		geom:      g,
		shuffle:   fn,
		chipShift: uint(p.chipBits()),
		chipMask:  p.Chips - 1,
		rowShift:  uint(p.chipBits() + bits.TrailingZeros(uint(g.Cols))),
	}
	patterns := int(p.MaxPattern()) + 1
	if entries := 2 * patterns * g.Cols; entries <= maxDensePlans {
		// Precompute every (shuffled, pattern, column) gather plan into one
		// contiguous backing array: three ints per line position.
		proto.plans = make([]gatherPlan, entries)
		backing := make([]int, entries*3*p.Chips)
		for i := range proto.plans {
			pl := &proto.plans[i]
			pl.chip, backing = backing[:p.Chips:p.Chips], backing[p.Chips:]
			pl.chipCol, backing = backing[:p.Chips:p.Chips], backing[p.Chips:]
			pl.logical, backing = backing[:p.Chips:p.Chips], backing[p.Chips:]
			shuffled := i >= patterns*g.Cols
			rest := i % (patterns * g.Cols)
			proto.buildPlan(pl, Pattern(rest/g.Cols), rest%g.Cols, shuffled)
		}
	}
	mods := make([]*Module, n)
	for i := range mods {
		m := proto
		m.chunks = make([]*rowChunk, (g.Banks*g.Rows+chunkMask)>>chunkShift)
		if m.plans == nil {
			m.planCache = make(map[planKey]*gatherPlan)
		}
		mods[i] = &m
	}
	return mods, nil
}

// Clone returns an independent copy of the module's contents. The
// immutable state — parameters, shuffle function and precomputed gather
// plans — is shared with the original. So is the row directory: Clone
// freezes it on both sides, and from then on each module keeps its own
// writes in its word overlay, so writes to either module never appear in
// the other. A clone costs a copy of the original's overlay, which is
// empty for a populated template, and each later write costs one overlay
// slot, not a row copy. Cloning a populated module is therefore far
// cheaper than re-running the writes that populated it, which is how the
// experiment harness stamps out per-run machines.
//
// Clone writes the original (it freezes it), so concurrent Clones of one
// module must be serialised, as the harness's template cache does.
func (m *Module) Clone() *Module {
	m.frozen = true
	n := *m
	n.overlay = m.overlay.Clone()
	if m.planCache != nil {
		// Lazy-plan configurations get their own memo map (entries are
		// immutable and safely shared; the map itself is not).
		n.planCache = make(map[planKey]*gatherPlan, len(m.planCache))
		for k, v := range m.planCache {
			n.planCache[k] = v
		}
	}
	return &n
}

// Params returns the module's GS-DRAM parameters.
func (m *Module) Params() Params { return m.params }

// Geometry returns the module's storage organisation.
func (m *Module) Geometry() Geometry { return m.geom }

// wordKey is the overlay key of word idx (chipColumn*Chips + chip) of
// row key (bank*Rows + row); the +1 keeps it off the table's empty key.
func (m *Module) wordKey(key, idx int) uint64 {
	return (uint64(key)<<m.rowShift | uint64(idx)) + 1
}

// setWord stores one word at (bank, row, chipCol, chip).
func (m *Module) setWord(bank, row, chipCol, chip int, v uint64) {
	key, idx := bank*m.geom.Rows+row, chipCol*m.params.Chips+chip
	if m.frozen {
		m.overlay.Put(m.wordKey(key, idx), v)
		return
	}
	c := m.chunks[key>>chunkShift]
	if c == nil {
		c = new(rowChunk)
		m.chunks[key>>chunkShift] = c
	}
	s := c[key&chunkMask]
	if s == nil {
		s = make([]uint64, m.geom.Cols*m.params.Chips)
		c[key&chunkMask] = s
	}
	s[idx] = v
}

// getWord loads one word at (bank, row, chipCol, chip); untouched rows
// read as zero.
func (m *Module) getWord(bank, row, chipCol, chip int) uint64 {
	key, idx := bank*m.geom.Rows+row, chipCol*m.params.Chips+chip
	if m.overlay.Len() != 0 {
		if v, ok := m.overlay.Get(m.wordKey(key, idx)); ok {
			return v
		}
	}
	if c := m.chunks[key>>chunkShift]; c != nil && c[key&chunkMask] != nil {
		return c[key&chunkMask][idx]
	}
	return 0
}

func (m *Module) checkAddr(bank, row, col int) error {
	if bank < 0 || bank >= m.geom.Banks {
		return fmt.Errorf("gsdram: bank %d out of range [0,%d)", bank, m.geom.Banks)
	}
	if row < 0 || row >= m.geom.Rows {
		return fmt.Errorf("gsdram: row %d out of range [0,%d)", row, m.geom.Rows)
	}
	if col < 0 || col >= m.geom.Cols {
		return fmt.Errorf("gsdram: column %d out of range [0,%d)", col, m.geom.Cols)
	}
	return nil
}

func (m *Module) checkPattern(patt Pattern) error {
	if patt > m.params.MaxPattern() {
		return fmt.Errorf("gsdram: pattern %#x exceeds %d pattern bits", uint32(patt), m.params.PatternBits)
	}
	return nil
}

// gatherPlan describes, for the cache line returned by a (col, patt) READ,
// which chip and chip-local column supplies each position of the line.
// Positions are ordered by ascending logical word index within the row, so
// the assembled line matches the presentation of Figure 7. Each slice has
// exactly Chips elements.
type gatherPlan struct {
	chip    []int // chip supplying position i
	chipCol []int // that chip's local column
	logical []int // logical word index within the row
}

// buildPlan fills pl with the gather plan for (patt, col). shuffled
// selects whether the target data was written with shuffling enabled.
func (m *Module) buildPlan(pl *gatherPlan, patt Pattern, col int, shuffled bool) {
	n := m.params.Chips
	for k := 0; k < n; k++ {
		c := m.params.CTL(k, patt, col)
		word := k
		if shuffled {
			word = k ^ m.shuffle(c)
		}
		pl.chip[k], pl.chipCol[k], pl.logical[k] = k, c, c*n+word
	}
	// Order by logical index (insertion sort; n <= 64).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && pl.logical[j-1] > pl.logical[j]; j-- {
			pl.logical[j-1], pl.logical[j] = pl.logical[j], pl.logical[j-1]
			pl.chip[j-1], pl.chip[j] = pl.chip[j], pl.chip[j-1]
			pl.chipCol[j-1], pl.chipCol[j] = pl.chipCol[j], pl.chipCol[j-1]
		}
	}
}

// plan returns the (precomputed or memoised) gather plan for (patt, col).
// The returned plan is shared and must not be modified.
func (m *Module) plan(patt Pattern, col int, shuffled bool) *gatherPlan {
	if m.plans != nil {
		idx := int(patt)*m.geom.Cols + col
		if shuffled {
			idx += len(m.plans) / 2
		}
		return &m.plans[idx]
	}
	key := planKey{patt: patt, col: col, shuffled: shuffled}
	if pl, ok := m.planCache[key]; ok {
		return pl
	}
	n := m.params.Chips
	backing := make([]int, 3*n)
	pl := &gatherPlan{chip: backing[:n:n], chipCol: backing[n : 2*n : 2*n], logical: backing[2*n:]}
	m.buildPlan(pl, patt, col, shuffled)
	m.planCache[key] = pl
	return pl
}

// WriteLine scatters a cache line to the module. For the default pattern
// with shuffle enabled the words pass through the shuffling network before
// landing on the chips (paper §3.2); with shuffle disabled the words are
// stored in identity order (a non-GS data structure). For non-zero
// patterns, each word is routed to the chip and chip-local column computed
// by the CTL — a gathered scatter (pattstore).
//
// line must hold exactly Chips words.
func (m *Module) WriteLine(bank, row, col int, patt Pattern, shuffled bool, line []uint64) error {
	if err := m.checkAddr(bank, row, col); err != nil {
		return err
	}
	if err := m.checkPattern(patt); err != nil {
		return err
	}
	if len(line) != m.params.Chips {
		return fmt.Errorf("gsdram: line has %d words, want %d", len(line), m.params.Chips)
	}
	g := m.plan(patt, col, shuffled)
	for i := 0; i < m.params.Chips; i++ {
		m.setWord(bank, row, g.chipCol[i], g.chip[i], line[i])
	}
	return nil
}

// ReadLine gathers a cache line from the module into dst (which must hold
// exactly Chips words) and returns the logical word indices (within the
// row) that each position of dst came from. With the default pattern this
// is an ordinary cache-line read; with a non-zero pattern it is a one-READ
// gather (paper §3.4).
//
// The returned index slice aliases the module's precomputed plan table:
// it is valid until the module is garbage collected, but callers must not
// modify it. The steady-state path performs no allocations.
func (m *Module) ReadLine(bank, row, col int, patt Pattern, shuffled bool, dst []uint64) ([]int, error) {
	if err := m.checkAddr(bank, row, col); err != nil {
		return nil, err
	}
	if err := m.checkPattern(patt); err != nil {
		return nil, err
	}
	if len(dst) != m.params.Chips {
		return nil, fmt.Errorf("gsdram: dst has %d words, want %d", len(dst), m.params.Chips)
	}
	g := m.plan(patt, col, shuffled)
	for i := 0; i < m.params.Chips; i++ {
		dst[i] = m.getWord(bank, row, g.chipCol[i], g.chip[i])
	}
	return g.logical, nil
}

// WriteWord stores a single 8-byte word at a logical position within a row
// without going through a cache line: logical index l = col*Chips + word.
// It is a test/setup convenience, equivalent to a read-modify-write of the
// containing line.
func (m *Module) WriteWord(bank, row, logical int, shuffled bool, v uint64) error {
	col := logical >> m.chipShift
	word := logical & m.chipMask
	if err := m.checkAddr(bank, row, col); err != nil {
		return err
	}
	chip := word
	if shuffled {
		chip = word ^ m.shuffle(col)
	}
	m.setWord(bank, row, col, chip, v)
	return nil
}

// ReadWord reads the single 8-byte word at logical index l = col*Chips +
// word within a row.
func (m *Module) ReadWord(bank, row, logical int, shuffled bool) (uint64, error) {
	col := logical >> m.chipShift
	word := logical & m.chipMask
	if err := m.checkAddr(bank, row, col); err != nil {
		return 0, err
	}
	chip := word
	if shuffled {
		chip = word ^ m.shuffle(col)
	}
	return m.getWord(bank, row, col, chip), nil
}

// ForEachWord visits every word of every allocated DRAM row, in
// deterministic (bank, row, chipCol, chip) order, including words that
// are still zero. It is the state-extraction hook the differential
// verification harness uses to compare the module's physical chip layout
// word-for-word against an independent golden model. A row is allocated
// once any write has reached it, in the row directory or in the overlay;
// untouched rows are skipped, and read as zero through every other
// accessor.
func (m *Module) ForEachWord(fn func(bank, row, chipCol, chip int, v uint64)) {
	var keys []int
	for ci, c := range m.chunks {
		if c == nil {
			continue
		}
		for i, s := range c {
			if s != nil {
				keys = append(keys, ci<<chunkShift|i)
			}
		}
	}
	if m.overlay.Len() != 0 {
		m.overlay.Range(func(k, _ uint64) { keys = append(keys, int((k-1)>>m.rowShift)) })
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	for _, key := range keys {
		bank, row := key/m.geom.Rows, key%m.geom.Rows
		for cc := 0; cc < m.geom.Cols; cc++ {
			for chip := 0; chip < m.params.Chips; chip++ {
				fn(bank, row, cc, chip, m.getWord(bank, row, cc, chip))
			}
		}
	}
}

// ChipWord returns the raw word stored on a chip at a chip-local column —
// the physical view used to verify the layout of Figure 6.
func (m *Module) ChipWord(bank, row, chipCol, chip int) (uint64, error) {
	if err := m.checkAddr(bank, row, chipCol); err != nil {
		return 0, err
	}
	if chip < 0 || chip >= m.params.Chips {
		return 0, fmt.Errorf("gsdram: chip %d out of range [0,%d)", chip, m.params.Chips)
	}
	return m.getWord(bank, row, chipCol, chip), nil
}
