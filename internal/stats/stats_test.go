package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "A", "BBBB")
	tb.Add("x", "1")
	tb.Addf("longer", 3.14159)
	out := tb.String()
	if !strings.Contains(out, "Title") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "BBBB") {
		t.Error("header missing")
	}
	if !strings.Contains(out, "3.14") {
		t.Error("float not formatted to 2 decimals")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestTableColumnsAligned(t *testing.T) {
	tb := NewTable("", "col", "x")
	tb.Add("a", "b")
	tb.Add("wiiiide", "c")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// "b" and "c" must start at the same offset.
	bIdx := strings.Index(lines[2], "b")
	cIdx := strings.Index(lines[3], "c")
	if bIdx != cIdx {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

// TestTableNonASCIIAligned: padding must go by display width, not byte
// length — "µarch" is 6 bytes but 5 columns, so byte-based padding
// would shift every cell after it one column left.
func TestTableNonASCIIAligned(t *testing.T) {
	tb := NewTable("", "layout", "x")
	tb.Add("µarch", "b")
	tb.Add("plain", "c")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	bIdx := strings.Index(lines[2], "b") - (len("µarch") - len([]rune("µarch")))
	cIdx := strings.Index(lines[3], "c")
	if bIdx != cIdx {
		t.Fatalf("non-ASCII cell misaligned columns:\n%s", out)
	}
}

func TestCellWidth(t *testing.T) {
	cases := []struct {
		s string
		w int
	}{
		{"", 0},
		{"abc", 3},
		{"µarch", 5},   // 6 bytes, 5 columns
		{"≥1.5×", 5},   // 9 bytes, 5 columns
		{"行列", 4},      // CJK: 2 columns per rune
		{"e\u0301", 1}, // e + combining acute renders one column
	}
	for _, c := range cases {
		if got := cellWidth(c.s); got != c.w {
			t.Errorf("cellWidth(%q) = %d, want %d", c.s, got, c.w)
		}
	}
}

func TestShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.Add("only")
	if out := tb.String(); !strings.Contains(out, "only") {
		t.Fatalf("short row lost: %s", out)
	}
}

func TestMcycles(t *testing.T) {
	if got := Mcycles(2_500_000); got != "2.50" {
		t.Errorf("Mcycles = %q", got)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(3, 2); got != "1.50" {
		t.Errorf("Ratio = %q", got)
	}
	if got := Ratio(1, 0); got != "inf" {
		t.Errorf("Ratio/0 = %q", got)
	}
}

func TestAddfHandlesInts(t *testing.T) {
	tb := NewTable("", "n")
	tb.Addf(42)
	if !strings.Contains(tb.String(), "42") {
		t.Error("int cell lost")
	}
}

func TestMeanCI(t *testing.T) {
	if _, _, err := MeanCI(nil); err == nil {
		t.Error("empty slice: no error")
	}
	cases := []struct {
		name       string
		xs         []float64
		mean, half float64
	}{
		{"one sample", []float64{5}, 5, 0},
		{"three samples", []float64{1, 2, 3}, 2, 4.303 / math.Sqrt(3)},
	}
	for _, tc := range cases {
		mean, half, err := MeanCI(tc.xs)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if mean != tc.mean || math.Abs(half-tc.half) > 1e-12 {
			t.Errorf("%s: MeanCI = %v ± %v, want %v ± %v", tc.name, mean, half, tc.mean, tc.half)
		}
	}
	for _, tc := range []struct {
		df   int
		want float64
	}{{1, 12.706}, {2, 4.303}, {30, 2.042}, {31, 1.960}, {1000, 1.960}} {
		if got := TQuantile(tc.df); got != tc.want {
			t.Errorf("TQuantile(%d) = %v, want %v", tc.df, got, tc.want)
		}
	}
}
