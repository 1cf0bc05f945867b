package imdb

import (
	"testing"

	"gsdram/internal/cpu"
	"gsdram/internal/machine"
	"gsdram/internal/memsys"
	"gsdram/internal/sim"
)

func newMach(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.Default()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newDB(t *testing.T, layout Layout, tuples int) *DB {
	t.Helper()
	db, err := New(newMach(t), layout, tuples)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNewValidation(t *testing.T) {
	m := newMach(t)
	if _, err := New(m, RowStore, 0); err == nil {
		t.Error("zero tuples accepted")
	}
	if _, err := New(m, RowStore, 12); err == nil {
		t.Error("non-multiple-of-8 tuples accepted")
	}
	if _, err := New(m, Layout(99), 64); err == nil {
		t.Error("unknown layout accepted")
	}
}

func TestLayoutString(t *testing.T) {
	if RowStore.String() != "Row Store" || ColumnStore.String() != "Column Store" || GSStore.String() != "GS-DRAM" {
		t.Error("layout names wrong")
	}
	if Layout(9).String() != "unknown" {
		t.Error("unknown layout name")
	}
}

func TestPopulateAndReadBack(t *testing.T) {
	for _, layout := range []Layout{RowStore, ColumnStore, GSStore} {
		db := newDB(t, layout, 64)
		for tup := 0; tup < 64; tup++ {
			for f := 0; f < FieldsPerTuple; f++ {
				v, err := db.ReadField(tup, f)
				if err != nil {
					t.Fatal(err)
				}
				if v != InitialValue(tup, f) {
					t.Fatalf("%v: field(%d,%d) = %d, want %d", layout, tup, f, v, InitialValue(tup, f))
				}
			}
		}
	}
}

func TestFieldAddrDistinctness(t *testing.T) {
	for _, layout := range []Layout{RowStore, ColumnStore, GSStore} {
		db := newDB(t, layout, 32)
		seen := map[uint64]bool{}
		for tup := 0; tup < 32; tup++ {
			for f := 0; f < FieldsPerTuple; f++ {
				a := uint64(db.FieldAddr(tup, f))
				if seen[a] {
					t.Fatalf("%v: duplicate address %#x", layout, a)
				}
				seen[a] = true
			}
		}
	}
}

func TestGatherLineAddrMatchesMachine(t *testing.T) {
	db := newDB(t, GSStore, 256)
	for _, tc := range []struct{ tup, f int }{{0, 0}, {5, 3}, {17, 7}, {128, 1}, {255, 6}} {
		want, _, err := db.mach.GatherAddr(db.FieldAddr(tc.tup, tc.f), FieldPattern)
		if err != nil {
			t.Fatal(err)
		}
		if got := db.GatherLineAddr(tc.tup, tc.f); got != want {
			t.Fatalf("GatherLineAddr(%d,%d) = %#x, want %#x", tc.tup, tc.f, uint64(got), uint64(want))
		}
	}
}

func TestExpectedColumnSum(t *testing.T) {
	db := newDB(t, RowStore, 64)
	var want uint64
	for tup := 0; tup < 64; tup++ {
		v, _ := db.ReadField(tup, 3)
		want += v
	}
	if got := ExpectedColumnSum(64, 3); got != want {
		t.Fatalf("ExpectedColumnSum = %d, want %d", got, want)
	}
}

// runStream executes a stream on a 1-core rig and returns (core stats,
// memsys).
func runStream(t *testing.T, db *DB, s cpu.Stream, prefetch bool) (cpu.Stats, *memsys.System) {
	t.Helper()
	q := &sim.EventQueue{}
	cfg := memsys.DefaultConfig(1)
	cfg.EnablePrefetch = prefetch
	mem, err := memsys.New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	core := cpu.New(0, q, mem, s, nil)
	core.Start(0)
	q.Run()
	st := core.Stats()
	if !st.Finished {
		t.Fatal("core did not finish")
	}
	return st, mem
}

func TestAnalyticsFunctionalSums(t *testing.T) {
	for _, layout := range []Layout{RowStore, ColumnStore, GSStore} {
		db := newDB(t, layout, 128)
		var res AnalyticsResult
		s, err := db.AnalyticsStream([]int{0, 5}, &res)
		if err != nil {
			t.Fatal(err)
		}
		runStream(t, db, s, false)
		if res.Sums[0] != ExpectedColumnSum(128, 0) {
			t.Fatalf("%v: column 0 sum = %d, want %d", layout, res.Sums[0], ExpectedColumnSum(128, 0))
		}
		if res.Sums[1] != ExpectedColumnSum(128, 5) {
			t.Fatalf("%v: column 5 sum = %d, want %d", layout, res.Sums[1], ExpectedColumnSum(128, 5))
		}
	}
}

func TestAnalyticsStreamValidation(t *testing.T) {
	db := newDB(t, RowStore, 64)
	if _, err := db.AnalyticsStream(nil, nil); err == nil {
		t.Error("empty column list accepted")
	}
	if _, err := db.AnalyticsStream([]int{8}, nil); err == nil {
		t.Error("column 8 accepted")
	}
	if _, err := db.AnalyticsStream([]int{-1}, nil); err == nil {
		t.Error("negative column accepted")
	}
}

func TestTransactionStreamValidation(t *testing.T) {
	db := newDB(t, RowStore, 64)
	if _, err := db.TransactionStream(TxnMix{5, 5, 5}, 10, 1, nil); err == nil {
		t.Error("oversized mix accepted")
	}
	if _, err := db.TransactionStream(TxnMix{}, 10, 1, nil); err == nil {
		t.Error("empty mix accepted")
	}
}

func TestTransactionStreamCompletesCount(t *testing.T) {
	db := newDB(t, GSStore, 64)
	var res TxnResult
	s, err := db.TransactionStream(TxnMix{RO: 1, WO: 1, RW: 1}, 25, 42, &res)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := runStream(t, db, s, false)
	if res.Completed != 25 {
		t.Fatalf("completed %d txns, want 25", res.Completed)
	}
	// 25 txns x (16 overhead + RO(1+2) + WO(1+2) + RW(2+4)... ) instructions.
	if st.Instructions == 0 || st.Loads == 0 || st.Stores == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTransactionsDeterministicAcrossLayouts(t *testing.T) {
	// With the same seed, the checksum of read values must be identical
	// for Row Store and GS-DRAM (same initial data, same tuple/field
	// choices, writes use the same RNG sequence).
	var sums []uint64
	for _, layout := range []Layout{RowStore, ColumnStore, GSStore} {
		db := newDB(t, layout, 64)
		var res TxnResult
		s, err := db.TransactionStream(TxnMix{RO: 2, RW: 1}, 50, 7, &res)
		if err != nil {
			t.Fatal(err)
		}
		runStream(t, db, s, false)
		sums = append(sums, res.Checksum)
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Fatalf("checksums diverge across layouts: %v", sums)
	}
}

func TestFigure9MixesWellFormed(t *testing.T) {
	if len(Figure9Mixes) != 8 {
		t.Fatalf("want 8 mixes, got %d", len(Figure9Mixes))
	}
	prev := 0
	for _, m := range Figure9Mixes {
		if m.Fields() > FieldsPerTuple || m.Fields() == 0 {
			t.Errorf("mix %v has %d fields", m, m.Fields())
		}
		if m.Fields() < prev {
			t.Errorf("mixes not sorted by total fields: %v", Figure9Mixes)
		}
		prev = m.Fields()
	}
	if Figure9Mixes[0].String() != "1-0-1" {
		t.Errorf("mix label = %q", Figure9Mixes[0].String())
	}
}

// TestAnalyticsLineFetchShape verifies the core claim at stream level: per
// column scanned, Row Store fetches ~1 line per tuple while Column Store
// and GS-DRAM fetch ~1 line per 8 tuples.
func TestAnalyticsLineFetchShape(t *testing.T) {
	const tuples = 512
	reads := map[Layout]uint64{}
	for _, layout := range []Layout{RowStore, ColumnStore, GSStore} {
		db := newDB(t, layout, tuples)
		s, err := db.AnalyticsStream([]int{0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, mem := runStream(t, db, s, false)
		reads[layout] = mem.Stats().DRAMReads
	}
	if reads[RowStore] < uint64(tuples) {
		t.Errorf("row store fetched %d lines, want >= %d", reads[RowStore], tuples)
	}
	if reads[ColumnStore] > uint64(tuples/8)+8 {
		t.Errorf("column store fetched %d lines, want about %d", reads[ColumnStore], tuples/8)
	}
	if reads[GSStore] > uint64(tuples/8)+8 {
		t.Errorf("GS-DRAM fetched %d lines, want about %d", reads[GSStore], tuples/8)
	}
}

// TestTransactionLineFetchShape verifies Figure 9's cause: per transaction,
// Row Store and GS-DRAM touch 1 line, Column Store touches one per field.
func TestTransactionLineFetchShape(t *testing.T) {
	const txns = 200
	mix := TxnMix{RO: 2, WO: 1, RW: 1} // 4 fields
	reads := map[Layout]uint64{}
	for _, layout := range []Layout{RowStore, ColumnStore, GSStore} {
		db := newDB(t, layout, 8192)
		s, err := db.TransactionStream(mix, txns, 99, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, mem := runStream(t, db, s, false)
		reads[layout] = mem.Stats().DRAMReads
	}
	// Column store should fetch roughly 4x the lines of row store.
	if reads[ColumnStore] < reads[RowStore]*3 {
		t.Errorf("column store fetched %d lines vs row store %d; want ~4x", reads[ColumnStore], reads[RowStore])
	}
	// GS-DRAM behaves like the row store for transactions.
	diff := float64(reads[GSStore]) / float64(reads[RowStore])
	if diff > 1.3 || diff < 0.7 {
		t.Errorf("GS-DRAM fetched %d lines vs row store %d; want parity", reads[GSStore], reads[RowStore])
	}
}

// TestAnalyticsStreamZeroAllocs pins the scan streams' op queue: it
// rewinds when drained, so refilling it tuple after tuple allocates
// nothing. Each AllocsPerRun run calls Next 1,000 times because
// AllocsPerRun divides with integers: at one Next per run, a leak of one
// allocation per tuple (0.5 per op) would read as 0.
func TestAnalyticsStreamZeroAllocs(t *testing.T) {
	for _, layout := range []Layout{RowStore, ColumnStore, GSStore} {
		db := newDB(t, layout, 1024)
		s, err := db.AnalyticsStream([]int{0, 1, 2, 3, 4, 5, 6, 7}, nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			for i := 0; i < 1000; i++ {
				if _, ok := s.Next(); !ok {
					t.Fatal("stream ended early")
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocations per 1,000 ops, want 0", layout, allocs)
		}
	}
}
