package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"gsdram/internal/sim"
)

// pbuf is a minimal protobuf encoder for hand-built profiles.
type pbuf struct{ b []byte }

func (p *pbuf) key(field, wire int) { p.b = binary.AppendUvarint(p.b, uint64(field<<3|wire)) }

func (p *pbuf) varint(field int, v uint64) {
	p.key(field, wireVarint)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pbuf) bytes(field int, b []byte) {
	p.key(field, wireBytes)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pbuf) packed(field int, vs ...uint64) {
	var q pbuf
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

// handProfile builds a gzipped profile. funcs are function names (ids
// 1..n), locs[i] lists the function ids of location i+1 innermost first,
// and each sample is a leaf-first location stack with a count. Odd
// samples encode their location ids unpacked.
func handProfile(funcs []string, locs [][]uint64, samples []struct {
	stack []uint64
	count uint64
}) []byte {
	var p pbuf
	var st pbuf
	st.varint(1, 1) // sample_type: type "samples"
	st.varint(2, 2) //              unit "count"
	p.bytes(1, st.b)
	for i, s := range samples {
		var q pbuf
		if i%2 == 0 {
			q.packed(sampleLocationID, s.stack...)
		} else {
			for _, id := range s.stack {
				q.varint(sampleLocationID, id)
			}
		}
		q.packed(sampleValue, s.count, s.count*2e6)
		p.bytes(profileSample, q.b)
	}
	for i, fids := range locs {
		var q pbuf
		q.varint(locationID, uint64(i+1))
		q.varint(3, 0x400000+uint64(i)) // address
		for _, f := range fids {
			var l pbuf
			l.varint(lineFunction, f)
			l.varint(2, 10) // line
			q.bytes(locationLine, l.b)
		}
		p.bytes(profileLocation, q.b)
	}
	strs := []string{"", "samples", "count"}
	for i, f := range funcs {
		var q pbuf
		q.varint(functionID, uint64(i+1))
		q.varint(functionName, uint64(len(strs)))
		p.bytes(profileFunction, q.b)
		strs = append(strs, f)
	}
	for _, s := range strs {
		p.bytes(profileStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.b)
	zw.Close()
	return gz.Bytes()
}

func TestAttributeHandBuiltProfile(t *testing.T) {
	funcs := []string{
		"gsdram/internal/sim.(*EventQueue).Step",     // 1
		"runtime.mallocgc",                           // 2
		"container/heap.Push",                        // 3
		"gsdram/internal/sim.(*EventQueue).Schedule", // 4
		"gsdram/internal/cache.(*Cache).find",        // 5
		"gsdram/internal/memsys.(*System).Access",    // 6
		"runtime.gcBgMarkWorker",                     // 7
		"encoding/json.Marshal",                      // 8
		"gsdram/internal/spec.RunDocument",           // 9
		"gsdram/internal/runner.Pool.Run[go.shape.struct { gsdram/internal/sim.x }]", // 10
		"strings.Split", // 11
		"main.condense", // 12
		"gsdram/internal/prefetch.(*Prefetcher).Observe", // 13
	}
	locs := [][]uint64{
		{1},     // 1: sim
		{2},     // 2: runtime leaf
		{3, 4},  // 3: container/heap.Push inlined into sim.Schedule
		{5, 6},  // 4: cache.find inlined into memsys.Access: the inner frame wins
		{7},     // 5: no module frame
		{8},     // 6: standard library
		{9},     // 7: spec
		{10},    // 8: generic runner function
		{11},    // 9: standard library
		{12},    // 10: gsperf itself
		{2, 13}, // 11: runtime inlined into prefetch
	}
	samples := []struct {
		stack []uint64
		count uint64
	}{
		{[]uint64{1}, 5},
		{[]uint64{2, 3}, 3},
		{[]uint64{4}, 2},
		{[]uint64{5}, 7},
		{[]uint64{6, 7}, 1},
		{[]uint64{8}, 4},
		{[]uint64{9, 10}, 2},
		{[]uint64{11, 1}, 6},
	}
	got, err := attributeProfile(handProfile(funcs, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"sim": 8, "cache": 2, "runtime": 7, "bench": 5, "other": 2, "memsys": 6}
	for _, l := range layers {
		if got[l] != want[l] {
			t.Errorf("layer %s: %d samples, want %d", l, got[l], want[l])
		}
	}
	if got.total() != 30 {
		t.Errorf("total %d samples, want 30", got.total())
	}
	checkSharesSumToOne(t, got.shares())
}

func TestAttributeRejectsTruncatedProfile(t *testing.T) {
	gz := handProfile([]string{"main.f"}, [][]uint64{{1}}, []struct {
		stack []uint64
		count uint64
	}{{[]uint64{1}, 1}})
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	raw.ReadFrom(zr)
	var cut bytes.Buffer
	zw := gzip.NewWriter(&cut)
	zw.Write(raw.Bytes()[:raw.Len()-3])
	zw.Close()
	if _, err := attributeProfile(cut.Bytes()); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

// TestAttributeLiveProfile burns CPU in the event queue under a real
// runtime/pprof profile; the samples charged to module code must land in
// the sim layer, heap operations (container/heap) included. Samples of
// the runtime itself are left out: under the race detector most samples
// fall in its runtime, with no Go frame above them.
func TestAttributeLiveProfile(t *testing.T) {
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	q := &sim.EventQueue{}
	r := sim.NewRand(1)
	var tick func(sim.Cycle)
	tick = func(sim.Cycle) { q.ScheduleAfter(sim.Cycle(1+r.Intn(1000)), tick) }
	for i := 0; i < 4096; i++ {
		q.Schedule(sim.Cycle(i), tick)
	}
	start := time.Now()
	for time.Since(start) < 400*time.Millisecond {
		q.RunUntil(q.Now() + 100000)
	}
	pprof.StopCPUProfile()

	got, err := attributeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	checkSharesSumToOne(t, got.shares())
	module := got.total() - got["runtime"]
	if module < 20 {
		t.Skipf("only %d profile samples in module code; the machine is too busy to judge", module)
	}
	if 2*got["sim"] <= module {
		t.Errorf("sim holds %d of %d module samples, want most of them: %v", got["sim"], module, got)
	}
}

func checkSharesSumToOne(t *testing.T, shares map[string]float64) {
	t.Helper()
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1: %v", sum, shares)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"gsdram/internal/sim.(*EventQueue).Run": "gsdram/internal/sim",
		"gsdram/internal/bench.RunFig9.func1":   "gsdram/internal/bench",
		"container/heap.Pop":                    "container/heap",
		"runtime.mallocgc":                      "runtime",
		"main.main":                             "main",
		"gsdram.NewModule":                      "gsdram",
		"gsdram/internal/runner.Pool.Run[go.shape.struct { a/b.c }]": "gsdram/internal/runner",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	for fn, want := range map[string]string{
		"gsdram/internal/ckpt.Load":       "sample",
		"gsdram/internal/kvstore.New":     "other",
		"gsdram/internal/resultcache.Get": "farm",
		"gsdram.NewModule":                "other",
		"main.main":                       "other",
		"container/heap.Pop":              "",
	} {
		if got := layerOfFunc(fn); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", fn, got, want)
		}
	}
}
