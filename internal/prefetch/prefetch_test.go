package prefetch

import (
	"testing"

	"gsdram/internal/addrmap"
)

func TestNoPrefetchUntilConfident(t *testing.T) {
	p := New(DefaultConfig())
	if got := p.Observe(nil, 1, 0x1000, 0); got != nil {
		t.Fatalf("first access prefetched %v", got)
	}
	if got := p.Observe(nil, 1, 0x1040, 0); got != nil {
		t.Fatalf("second access (stride unconfirmed) prefetched %v", got)
	}
}

func TestStridedStreamPrefetches(t *testing.T) {
	p := New(DefaultConfig())
	var got []Candidate
	for i := 0; i < 5; i++ {
		got = p.Observe(nil, 1, addrmap.Addr(0x1000+i*64), 0)
	}
	if len(got) != 4 {
		t.Fatalf("confident stride issued %d candidates, want degree 4", len(got))
	}
	base := addrmap.Addr(0x1000 + 4*64)
	for i, c := range got {
		want := base + addrmap.Addr((i+1)*64)
		if c.Addr != want {
			t.Errorf("candidate %d = %#x, want %#x", i, uint64(c.Addr), uint64(want))
		}
	}
}

func TestLargeStride(t *testing.T) {
	// A GS-DRAM pattern scan strides by 512 bytes (8 lines).
	p := New(DefaultConfig())
	var got []Candidate
	for i := 0; i < 5; i++ {
		got = p.Observe(nil, 7, addrmap.Addr(0x8000+i*512), 7)
	}
	if len(got) != 4 {
		t.Fatalf("issued %d, want 4", len(got))
	}
	for i, c := range got {
		if c.Pattern != 7 {
			t.Errorf("candidate %d pattern = %d, want 7 (inherits stream pattern)", i, c.Pattern)
		}
		want := addrmap.Addr(0x8000 + 4*512 + (i+1)*512)
		if c.Addr != want {
			t.Errorf("candidate %d = %#x, want %#x", i, uint64(c.Addr), uint64(want))
		}
	}
}

func TestStrideChangeResetsConfidence(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 4; i++ {
		p.Observe(nil, 1, addrmap.Addr(0x1000+i*64), 0)
	}
	if got := p.Observe(nil, 1, 0x9000, 0); got != nil {
		t.Fatalf("stride break still prefetched %v", got)
	}
	if got := p.Observe(nil, 1, 0x9040, 0); got != nil {
		t.Fatalf("one match after break prefetched %v", got)
	}
}

func TestRandomAccessesDoNotPrefetch(t *testing.T) {
	p := New(DefaultConfig())
	addrs := []addrmap.Addr{0x1000, 0x5000, 0x2000, 0x9000, 0x3000, 0x7000}
	for _, a := range addrs {
		if got := p.Observe(nil, 2, a, 0); got != nil {
			t.Fatalf("random stream prefetched %v", got)
		}
	}
}

func TestDistinctPCsTrackedSeparately(t *testing.T) {
	p := New(Config{TableEntries: 256, Degree: 2, MinConf: 2})
	var a, b []Candidate
	for i := 0; i < 5; i++ {
		a = p.Observe(nil, 10, addrmap.Addr(0x1000+i*64), 0)
		b = p.Observe(nil, 11, addrmap.Addr(0x90000+i*128), 0)
	}
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("per-PC streams issued %d/%d, want 2/2", len(a), len(b))
	}
	if b[0].Addr != addrmap.Addr(0x90000+4*128+128) {
		t.Errorf("stream B candidate = %#x", uint64(b[0].Addr))
	}
}

func TestPatternChangeRetrains(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		p.Observe(nil, 1, addrmap.Addr(0x1000+i*64), 0)
	}
	// Same PC switches to a patterned stream: must retrain, not prefetch
	// immediately.
	if got := p.Observe(nil, 1, 0x2000, 7); got != nil {
		t.Fatalf("pattern switch still prefetched %v", got)
	}
}

func TestDisabledPrefetcher(t *testing.T) {
	p := New(Config{TableEntries: 16, Degree: 0, MinConf: 0})
	for i := 0; i < 10; i++ {
		if got := p.Observe(nil, 1, addrmap.Addr(0x1000+i*64), 0); got != nil {
			t.Fatal("disabled prefetcher issued candidates")
		}
	}
}

func TestNegativeStride(t *testing.T) {
	p := New(DefaultConfig())
	var got []Candidate
	for i := 10; i >= 0; i-- {
		got = p.Observe(nil, 1, addrmap.Addr(0x10000+i*64), 0)
	}
	if len(got) != 4 {
		t.Fatalf("descending stream issued %d, want 4", len(got))
	}
	if got[0].Addr != addrmap.Addr(0x10000-64) {
		t.Errorf("descending candidate = %#x", uint64(got[0].Addr))
	}
}

func TestNegativeStrideStopsAtZero(t *testing.T) {
	p := New(DefaultConfig())
	var got []Candidate
	for i := 4; i >= 0; i-- {
		got = p.Observe(nil, 1, addrmap.Addr(i*64), 0)
	}
	// Address 0 reached; further candidates would be negative.
	if len(got) != 0 {
		t.Fatalf("candidates below zero issued: %v", got)
	}
}

func TestStatsCounting(t *testing.T) {
	p := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		p.Observe(nil, 1, addrmap.Addr(0x1000+i*64), 0)
	}
	s := p.Stats()
	if s.Trains != 5 || s.StrideHits < 3 || s.Issues == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestZeroTableClamped(t *testing.T) {
	p := New(Config{TableEntries: 0, Degree: 1, MinConf: 1})
	// Must not panic.
	p.Observe(nil, 123, 0x1000, 0)
	p.Observe(nil, 123, 0x1040, 0)
}
