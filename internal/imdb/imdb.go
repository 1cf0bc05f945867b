// Package imdb implements the paper's in-memory database evaluation
// workload (§5.1): a single table of tuples with eight 8-byte fields (one
// tuple per 64 B cache line), stored as a row store, a column store, or a
// GS-DRAM row store (shuffled pages with alternate pattern 7), together
// with generators for the transaction, analytics and HTAP instruction
// streams consumed by the core model.
package imdb

import (
	"fmt"

	"gsdram/internal/addrmap"
	"gsdram/internal/cpu"
	"gsdram/internal/gsdram"
	"gsdram/internal/hashtab"
	"gsdram/internal/machine"
	"gsdram/internal/sim"
)

// FieldsPerTuple is fixed by the paper's setup: eight 8-byte fields fill
// one 64-byte cache line.
const FieldsPerTuple = 8

// FieldPattern is the alternate pattern ID for field-major access: pattern
// 7 gathers a stride of 8 words = one field across 8 tuples.
const FieldPattern gsdram.Pattern = 7

// Layout selects the physical organisation of the table.
type Layout int

const (
	// RowStore stores tuples contiguously (tuple-major).
	RowStore Layout = iota
	// ColumnStore stores each field contiguously (field-major).
	ColumnStore
	// GSStore stores tuples contiguously in pattmalloc'd (shuffled) pages:
	// transactions use the default pattern, analytics use pattern 7.
	GSStore
)

func (l Layout) String() string {
	switch l {
	case RowStore:
		return "Row Store"
	case ColumnStore:
		return "Column Store"
	case GSStore:
		return "GS-DRAM"
	default:
		return "unknown"
	}
}

// DB is the populated table on a machine.
type DB struct {
	mach    *machine.Machine
	layout  Layout
	tuples  int
	base    addrmap.Addr                 // RowStore / GSStore
	colBase [FieldsPerTuple]addrmap.Addr // ColumnStore
}

// New allocates and populates a table with the given layout. The initial
// value of field f of tuple t is t*10+f, so analytics sums are verifiable
// in closed form.
func New(mach *machine.Machine, layout Layout, tuples int) (*DB, error) {
	if tuples <= 0 || tuples%FieldsPerTuple != 0 {
		return nil, fmt.Errorf("imdb: tuples must be a positive multiple of %d, got %d", FieldsPerTuple, tuples)
	}
	db := &DB{mach: mach, layout: layout, tuples: tuples}
	size := tuples * FieldsPerTuple * 8
	var err error
	switch layout {
	case RowStore:
		db.base, err = mach.AS.Malloc(size)
	case GSStore:
		db.base, err = mach.AS.PattMalloc(size, FieldPattern)
	case ColumnStore:
		for f := 0; f < FieldsPerTuple; f++ {
			db.colBase[f], err = mach.AS.Malloc(tuples * 8)
			if err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("imdb: unknown layout %d", layout)
	}
	if err != nil {
		return nil, err
	}
	// Populate at cache-line granularity: one WriteLine stores the same
	// words to the same chips as eight WriteFields (the default-pattern
	// plan routes word i of column c to chip i^shuffle(c), exactly the
	// per-word rule), but pays the address decomposition once per line.
	var line [FieldsPerTuple]uint64
	if layout == ColumnStore {
		for f := 0; f < FieldsPerTuple; f++ {
			for t0 := 0; t0 < tuples; t0 += FieldsPerTuple {
				for i := range line {
					line[i] = InitialValue(t0+i, f)
				}
				if err := mach.WriteLine(db.FieldAddr(t0, f), gsdram.DefaultPattern, line[:]); err != nil {
					return nil, err
				}
			}
		}
	} else {
		for t := 0; t < tuples; t++ {
			for f := range line {
				line[f] = InitialValue(t, f)
			}
			if err := mach.WriteLine(db.FieldAddr(t, 0), gsdram.DefaultPattern, line[:]); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// InitialValue is the value New stores in field f of tuple t.
func InitialValue(t, f int) uint64 { return uint64(t)*10 + uint64(f) }

// Clone returns an independent copy of the database backed by a clone of
// its machine: same addresses and contents, but writes through either copy
// stay private to it. Cloning a populated DB is bit-identical to (and much
// cheaper than) building a fresh machine and repopulating the table.
func (db *DB) Clone() *DB {
	n := *db
	n.mach = db.mach.Clone()
	return &n
}

// Layout returns the table's layout.
func (db *DB) Layout() Layout { return db.layout }

// Tuples returns the number of tuples.
func (db *DB) Tuples() int { return db.tuples }

// FieldAddr returns the byte address of field f of tuple t.
func (db *DB) FieldAddr(t, f int) addrmap.Addr {
	if db.layout == ColumnStore {
		return db.colBase[f] + addrmap.Addr(t*8)
	}
	return db.base + addrmap.Addr(t*FieldsPerTuple*8+f*8)
}

// ReadField reads field f of tuple t functionally.
func (db *DB) ReadField(t, f int) (uint64, error) {
	return db.mach.ReadWord(db.FieldAddr(t, f))
}

// WriteField writes field f of tuple t functionally.
func (db *DB) WriteField(t, f int, v uint64) error {
	return db.mach.WriteWord(db.FieldAddr(t, f), v)
}

// loadOp returns the load the core issues for field f of tuple t under
// this layout's *tuple-major* (transactional) access path.
func (db *DB) loadOp(t, f int, pc uint64) cpu.Op {
	op := cpu.Load(db.FieldAddr(t, f), pc)
	if db.layout == GSStore {
		op.Shuffled = true
		op.AltPattern = FieldPattern
	}
	return op
}

func (db *DB) storeOp(t, f int, pc uint64) cpu.Op {
	op := cpu.Store(db.FieldAddr(t, f), pc)
	if db.layout == GSStore {
		op.Shuffled = true
		op.AltPattern = FieldPattern
	}
	return op
}

// GatherLineAddr returns the cache-line address a pattload with pattern 7
// uses to gather field f of the 8-tuple group containing tuple t. With one
// tuple per column and a page-aligned (hence 8-column-aligned) base, the
// issued column is the group's base column plus f, i.e. the line address
// is base + ((t &^ 7) + f) * 64 — the closed form of the general
// machine.GatherAddr computation, exercised against it in the tests.
// It is only meaningful for the GSStore layout.
func (db *DB) GatherLineAddr(t, f int) addrmap.Addr {
	return db.base + addrmap.Addr(((t&^7)+f)*FieldsPerTuple*8)
}

// TxnMix is a Figure 9 workload point: every transaction reads RO fields,
// writes WO fields, and reads+writes RW fields of one random tuple.
type TxnMix struct {
	RO, WO, RW int
}

// Fields returns the total fields touched per transaction.
func (m TxnMix) Fields() int { return m.RO + m.WO + m.RW }

func (m TxnMix) String() string { return fmt.Sprintf("%d-%d-%d", m.RO, m.WO, m.RW) }

// Figure9Mixes are the eight workload points on Figure 9's x-axis, sorted
// by total fields accessed per transaction as in the paper.
var Figure9Mixes = []TxnMix{
	{1, 0, 1}, {2, 1, 0}, {0, 2, 2}, {2, 4, 0},
	{5, 0, 1}, {2, 0, 4}, {6, 1, 0}, {4, 2, 2},
}

// TxnResult accumulates transaction-stream outcomes.
type TxnResult struct {
	Completed uint64
	Checksum  uint64 // XOR of all values read, for functional verification
}

// txnOverheadInstrs models per-transaction bookkeeping (key lookup, logging).
const txnOverheadInstrs = 16

// TxnStream is the instruction stream executing transactions against the
// table (paper §5.1, Figure 9).
type TxnStream struct {
	db    *DB
	mix   TxnMix
	count int
	rng   *sim.Rand
	res   *TxnResult

	pending cpu.OpQueue
	done    int
	permBuf []int

	// shadow, when non-nil, redirects the stream's functional reads and
	// writes from the machine's DRAM rows to a compact logical overlay
	// keyed by fieldKey: written fields live in the table, unwritten fields
	// read as InitialValue. The op stream, the checksum and the completed
	// count are bit-identical to machine-backed execution — op addresses
	// depend only on the RNG, and the overlay stores exactly the values
	// the machine would (TestShadowMatchesMachine pins this) — but the
	// machine's DRAM image stays at its populated state. Sampled runs
	// (DESIGN.md §5.7) use this: their timing path is tag-only, and the
	// overlay spares each fast-forwarded field access the machine's word
	// path (address decomposition, page flags and the module's own clone
	// overlay).
	shadow *hashtab.Table[uint64]
}

// TransactionStream returns an instruction stream executing `count`
// transactions of the given mix against the table ( paper §5.1, Figure 9).
// A count of 0 yields an unbounded stream (for HTAP, where the harness
// stops the core externally). Functional reads/writes happen during
// generation, which matches program order because the core is in-order and
// blocking.
func (db *DB) TransactionStream(mix TxnMix, count int, seed uint64, res *TxnResult) (*TxnStream, error) {
	if mix.Fields() > FieldsPerTuple {
		return nil, fmt.Errorf("imdb: mix %v touches %d fields, table has %d", mix, mix.Fields(), FieldsPerTuple)
	}
	if mix.Fields() == 0 {
		return nil, fmt.Errorf("imdb: empty transaction mix")
	}
	if res == nil {
		res = &TxnResult{}
	}
	return &TxnStream{
		db:      db,
		mix:     mix,
		count:   count,
		rng:     sim.NewRand(seed),
		res:     res,
		permBuf: make([]int, 0, FieldsPerTuple),
	}, nil
}

// Result returns the stream's accumulator.
func (s *TxnStream) Result() *TxnResult { return s.res }

// EnableShadow switches the stream's functional execution to the logical
// overlay (see the shadow field). Must be called before the first
// transaction is generated; enabling it later would leave earlier writes
// in the machine and later ones in the overlay.
func (s *TxnStream) EnableShadow() {
	if s.done != 0 || !s.pending.Empty() {
		panic("imdb: EnableShadow after transactions were generated")
	}
	// Presize for the stream's total write count (an upper bound on
	// distinct written fields) so the table is allocated once instead of
	// through a doubling chain of large, zeroed arrays.
	s.shadow = new(hashtab.Table[uint64])
	s.shadow.Reserve(s.count * (s.mix.WO + s.mix.RW))
}

// fieldKey is field f of tuple t's shadow key; the +1 keeps it off the
// table's empty key.
func fieldKey(t, f int) uint64 { return uint64(t*FieldsPerTuple+f) + 1 }

// readVal functionally reads field f of tuple t through the active
// backing (overlay or machine) and folds it into the checksum.
func (s *TxnStream) readVal(t, f int) {
	if s.shadow != nil {
		v, ok := s.shadow.Get(fieldKey(t, f))
		if !ok {
			v = InitialValue(t, f)
		}
		s.res.Checksum ^= v
		return
	}
	v, err := s.db.ReadField(t, f)
	if err != nil {
		panic(fmt.Sprintf("imdb: functional read failed: %v", err))
	}
	s.res.Checksum ^= v
}

// writeVal functionally writes field f of tuple t through the active
// backing, consuming one RNG draw for the stored value.
func (s *TxnStream) writeVal(t, f int) {
	v := s.rng.Uint64()
	if s.shadow != nil {
		s.shadow.Put(fieldKey(t, f), v)
		return
	}
	if err := s.db.WriteField(t, f, v); err != nil {
		panic(fmt.Sprintf("imdb: functional write failed: %v", err))
	}
}

func (s *TxnStream) makeTxn() {
	t := s.rng.Intn(s.db.tuples)
	s.permBuf = s.rng.PermInto(s.permBuf, FieldsPerTuple)
	fields := s.permBuf[:s.mix.Fields()]
	s.pending.Push(cpu.Compute(txnOverheadInstrs))
	idx := 0
	read := func(f int) {
		s.readVal(t, f)
		s.pending.Push(s.db.loadOp(t, f, 0x100+uint64(idx)), cpu.Compute(2))
	}
	write := func(f int) {
		s.writeVal(t, f)
		s.pending.Push(s.db.storeOp(t, f, 0x200+uint64(idx)), cpu.Compute(2))
	}
	for i := 0; i < s.mix.RO; i++ {
		read(fields[idx])
		idx++
	}
	for i := 0; i < s.mix.WO; i++ {
		write(fields[idx])
		idx++
	}
	for i := 0; i < s.mix.RW; i++ {
		read(fields[idx])
		write(fields[idx])
		idx++
	}
	s.res.Completed++
}

// Next implements cpu.Stream.
func (s *TxnStream) Next() (cpu.Op, bool) {
	for s.pending.Empty() {
		if s.count > 0 && s.done >= s.count {
			return cpu.Op{}, false
		}
		s.makeTxn()
		s.done++
	}
	return s.pending.Pop()
}

// AnalyticsResult holds the functional outcome of an analytics query.
type AnalyticsResult struct {
	Sums []uint64 // one per summed column
}

// ExpectedColumnSum returns the closed-form sum of column f over a freshly
// populated table of n tuples: sum_t (10t + f).
func ExpectedColumnSum(n, f int) uint64 {
	return 10*uint64(n)*uint64(n-1)/2 + uint64(f)*uint64(n)
}

// GatherLineAddrStride returns the cache-line address of the pattern
// (s-1) gather containing field f of tuple t, for any power-of-2 stride
// s <= 8: the issued column replaces the low log2(s) column bits with the
// matching bits of f (closed form of the CTL algebra; s = 8 reduces to
// GatherLineAddr).
func (db *DB) GatherLineAddrStride(t, f, s int) addrmap.Addr {
	col := (t &^ (s - 1)) | (f & (s - 1))
	return db.base + addrmap.Addr(col*FieldsPerTuple*8)
}

// AnalyticsStreamPatternBits is AnalyticsStream for a hypothetical
// GS-DRAM(8,3,p) with only p pattern bits (paper §3.5's parameter
// space): the widest gather is stride 2^p, so a field scan needs
// 8/2^p line fetches per 8 tuples. p = 0 degenerates to ordinary loads
// (row-store behaviour); p = 3 is the full mechanism.
func (db *DB) AnalyticsStreamPatternBits(columns []int, pbits int, res *AnalyticsResult) (cpu.Stream, error) {
	if db.layout != GSStore {
		return nil, fmt.Errorf("imdb: pattern-bit sweep requires the GS layout")
	}
	if pbits < 0 || pbits > 3 {
		return nil, fmt.Errorf("imdb: pbits must be in [0,3], got %d", pbits)
	}
	return db.analyticsStreamStride(columns, 1<<pbits, res)
}

// AnalyticsStream returns an instruction stream computing the sum of the
// given columns (paper §5.1, Figure 10). The access pattern per layout:
//
//   - Row Store: one load per tuple per column (stride 64 B) — every load
//     fetches a full tuple line for one useful field.
//   - Column Store: one load per element (stride 8 B) — 7 of 8 hit the L1.
//   - GS-DRAM: the Figure 8 loop — one pattload per element with pattern 7;
//     the 8 loads of a tuple group share one gathered line, so 7 of 8 hit.
func (db *DB) AnalyticsStream(columns []int, res *AnalyticsResult) (cpu.Stream, error) {
	return db.analyticsStream(columns, res, true)
}

// PlainAnalyticsStream is AnalyticsStream without explicit pattloads:
// even on the GS layout the scan issues ordinary per-field loads (the
// page metadata still marks them shuffled). This is the input for the
// transparent pattern-promotion experiment (paper §4's future-work
// mechanism, implemented in internal/autopatt): unmodified row-store
// code running on pattmalloc'd pages.
func (db *DB) PlainAnalyticsStream(columns []int, res *AnalyticsResult) (cpu.Stream, error) {
	return db.analyticsStream(columns, res, false)
}

func (db *DB) analyticsStream(columns []int, res *AnalyticsResult, usePattLoad bool) (cpu.Stream, error) {
	stride := 0
	if db.layout == GSStore && usePattLoad {
		stride = FieldsPerTuple
	}
	return db.analyticsStreamStride(columns, stride, res)
}

// analyticsStreamStride generates the scan with gathers of the given word
// stride (0 or 1 = plain loads).
func (db *DB) analyticsStreamStride(columns []int, stride int, res *AnalyticsResult) (cpu.Stream, error) {
	for _, f := range columns {
		if f < 0 || f >= FieldsPerTuple {
			return nil, fmt.Errorf("imdb: column %d out of range", f)
		}
	}
	if len(columns) == 0 {
		return nil, fmt.Errorf("imdb: no columns to sum")
	}
	if res == nil {
		res = &AnalyticsResult{}
	}
	res.Sums = make([]uint64, len(columns))

	ci := 0 // column index
	t := 0  // next tuple
	var pending cpu.OpQueue
	return cpu.FuncStream(func() (cpu.Op, bool) {
		for pending.Empty() {
			if ci >= len(columns) {
				return cpu.Op{}, false
			}
			f := columns[ci]
			v, err := db.ReadField(t, f)
			if err != nil {
				panic(fmt.Sprintf("imdb: functional read failed: %v", err))
			}
			res.Sums[ci] += v

			pc := 0x1000 + uint64(ci)
			if stride > 1 {
				patt := gsdram.Pattern(stride - 1)
				op := cpu.PattLoad(db.GatherLineAddrStride(t, f, stride), patt, pc)
				pending.Push(op, cpu.Compute(2))
			} else {
				pending.Push(db.loadOp(t, f, pc), cpu.Compute(2))
			}

			t++
			if t >= db.tuples {
				t = 0
				ci++
			}
		}
		return pending.Pop()
	}), nil
}
