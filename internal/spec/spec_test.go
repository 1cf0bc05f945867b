package spec

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gsdram/internal/telemetry"
)

// baseSpec returns a fully-populated spec so every field mutation in
// the sensitivity test starts from a non-zero value. Telemetry is on
// and Epoch non-zero because Normalized zeroes the epoch of
// untelemetered specs (it has no effect there).
func baseSpec() Spec {
	return Spec{
		Experiment:  "fig9",
		Tuples:      4096,
		Txns:        300,
		GemmSizes:   []int{32, 64},
		KVPairs:     4096,
		Vertices:    32768,
		Degree:      8,
		Seed:        42,
		Workers:     2,
		NoInline:    false,
		Sample:      &Sample{Interval: 16384, Warmup: 512, Measure: 1024, Seed: 1},
		Telemetry:   true,
		Epoch:       100000,
		Fingerprint: "gsdram-sim/test",
	}
}

func TestHashStableAndWellFormed(t *testing.T) {
	s := baseSpec()
	h1, h2 := s.Hash(), s.Hash()
	if h1 != h2 {
		t.Fatalf("hash not stable: %s vs %s", h1, h2)
	}
	if len(h1) != 64 {
		t.Fatalf("hash %q is not 64 hex chars", h1)
	}
	for _, r := range h1 {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			t.Fatalf("hash %q is not lowercase hex", h1)
		}
	}
	// A copy with identical fields hashes identically.
	c := baseSpec()
	if c.Hash() != h1 {
		t.Fatalf("equal specs hash differently")
	}
}

// mutate changes one struct field to a different value of its type.
func mutate(f reflect.Value) {
	switch f.Kind() {
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Int:
		f.SetInt(f.Int() + 1)
	case reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Slice:
		f.Set(reflect.Append(f, reflect.ValueOf(1)))
	case reflect.Ptr:
		f.Set(reflect.Zero(f.Type())) // drop the sampling section
	default:
		panic("unhandled kind " + f.Kind().String())
	}
}

// TestHashFieldSensitivity drives the cache-key semantics: changing ANY
// spec field — workload knobs, seed, execution options, telemetry,
// fingerprint — must change the hash, because the stored document
// embeds them all (a false hit is never safe). Reflection keeps the
// test honest when Spec grows fields: a new field that does not change
// the hash fails here until it participates in the encoding.
func TestHashFieldSensitivity(t *testing.T) {
	base := baseSpec()
	baseHash := base.Hash()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		s := baseSpec()
		mutate(reflect.ValueOf(&s).Elem().Field(i))
		if s.Hash() == baseHash {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
	// And the Sample sub-fields, which the loop above only covers as a
	// whole pointer.
	styp := reflect.TypeOf(Sample{})
	for i := 0; i < styp.NumField(); i++ {
		name := "Sample." + styp.Field(i).Name
		s := baseSpec()
		mutate(reflect.ValueOf(s.Sample).Elem().Field(i))
		if s.Hash() == baseHash {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
}

func TestNormalizedDefaults(t *testing.T) {
	s := Spec{Experiment: "fig9"}
	n := s.Normalized()
	if n.Fingerprint == "" {
		t.Fatalf("Normalized left the fingerprint empty")
	}
	if n.Fingerprint != DefaultFingerprint() {
		t.Fatalf("Normalized fingerprint %q != DefaultFingerprint %q", n.Fingerprint, DefaultFingerprint())
	}
	if n.GemmSizes == nil {
		t.Fatalf("Normalized left GemmSizes nil")
	}
	if n.Epoch != 0 {
		t.Fatalf("untelemetered spec kept epoch %d; want 0", n.Epoch)
	}

	// Telemetry on with no epoch canonicalizes to the default, so the
	// two spellings of "default epoch" share one cache entry.
	tele := Spec{Experiment: "fig9", Telemetry: true}
	if got := tele.Normalized().Epoch; got != uint64(telemetry.DefaultEpoch) {
		t.Fatalf("telemetered epoch normalized to %d; want %d", got, uint64(telemetry.DefaultEpoch))
	}
	explicit := tele
	explicit.Epoch = uint64(telemetry.DefaultEpoch)
	if tele.Hash() != explicit.Hash() {
		t.Fatalf("default and explicit default epoch hash differently")
	}

	// Epoch is irrelevant without telemetry; both spellings hit the same
	// cache entry.
	off1 := Spec{Experiment: "fig9"}
	off2 := Spec{Experiment: "fig9", Epoch: 12345}
	if off1.Hash() != off2.Hash() {
		t.Fatalf("untelemetered specs with different epochs hash differently")
	}

	// Normalized does not mutate the receiver.
	if s.Fingerprint != "" {
		t.Fatalf("Normalized mutated its receiver")
	}
}

func TestCanonicalRoundTrips(t *testing.T) {
	s := baseSpec()
	var back Spec
	if err := json.Unmarshal(s.Canonical(), &back); err != nil {
		t.Fatalf("canonical encoding does not parse: %v", err)
	}
	if back.Hash() != s.Hash() {
		t.Fatalf("canonical round trip changed the hash")
	}
}

func TestValidate(t *testing.T) {
	ok := baseSpec()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown experiment", func(s *Spec) { s.Experiment = "fig99" }, "unknown experiment"},
		{"zero tuples", func(s *Spec) { s.Tuples = 0 }, "tuples"},
		{"zero txns", func(s *Spec) { s.Txns = 0 }, "txns"},
		{"bad gemm", func(s *Spec) { s.GemmSizes = []int{0} }, "GEMM"},
		{"bad kvpairs", func(s *Spec) { s.KVPairs = 0 }, "kvpairs"},
		{"negative workers", func(s *Spec) { s.Workers = -1 }, "workers"},
		{"noinline with sampling", func(s *Spec) { s.NoInline = true }, "noinline"},
		{"bad sample window", func(s *Spec) { s.Sample = &Sample{Interval: 100, Warmup: 60, Measure: 50} }, "interval"},
		// warmup + measure wraps to 1023 in uint64, below the interval.
		{"overflowing sample warmup", func(s *Spec) { s.Sample = &Sample{Interval: 16384, Warmup: math.MaxUint64, Measure: 1024} }, "interval"},
	}
	for _, tc := range cases {
		s := baseSpec()
		tc.mut(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// fig9sampled runs its sampled pass regardless of the fast-path
	// toggle, so it is the one experiment where the combination stands.
	carve := baseSpec()
	carve.Experiment = "fig9sampled"
	carve.NoInline = true
	if err := carve.Validate(); err != nil {
		t.Fatalf("fig9sampled noinline carve-out rejected: %v", err)
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) < 17 {
		t.Fatalf("registry has %d experiments; want >= 17", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate registry name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"table1", "fig7", "fig9", "fig9sampled", "fig10", "fig13", "kvstore", "graph"} {
		if !seen[want] {
			t.Fatalf("registry is missing %q", want)
		}
	}
}

// TestDefaultFingerprint: the fingerprint is a digest of the running
// executable, so any one-byte difference in the code changes it.
func TestDefaultFingerprint(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := os.WriteFile(a, []byte("gsdram-sim\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("gsdram-sim\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	fa, err := fileFingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fileFingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if fa == fb {
		t.Fatalf("files differing in one byte share fingerprint %q", fa)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fileFingerprint(exe)
	if err != nil {
		t.Fatal(err)
	}
	if got := DefaultFingerprint(); got != want {
		t.Fatalf("DefaultFingerprint() = %q, want the executable's %q", got, want)
	}
}

func TestBenchOptionsDoesNotAliasGemm(t *testing.T) {
	s := baseSpec()
	o := s.BenchOptions()
	o.GemmSizes[0] = 999
	if s.GemmSizes[0] == 999 {
		t.Fatalf("BenchOptions aliased the spec's gemm slice")
	}
}
