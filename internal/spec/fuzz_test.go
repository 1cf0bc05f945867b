package spec

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decodeStrict decodes one spec as the farm API decodes a sweep body:
// unknown fields are an error.
func decodeStrict(b []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	err := dec.Decode(&s)
	return s, err
}

// FuzzSpecDecode feeds arbitrary bytes through the farm's decoding of a
// spec. Decoding, Normalized and Validate must never panic, and a spec
// that validates must survive its own canonical encoding: decoding
// Canonical() and normalizing again gives the same bytes and the same
// Hash, so a resubmitted point finds its cached result.
func FuzzSpecDecode(f *testing.F) {
	// The points of CI's farm sweeps, as the sweep client submits them.
	add := func(exp string, tuples, txns int, seed uint64, noInline bool) {
		s := Spec{
			Experiment: exp, Tuples: tuples, Txns: txns,
			GemmSizes: []int{32, 64, 128, 256}, KVPairs: 4096, Vertices: 32768, Degree: 8,
			Seed: seed, NoInline: noInline, Telemetry: true, Epoch: 100_000,
			Fingerprint: "sha256:" + string(bytes.Repeat([]byte("0"), 64)),
		}
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, tuples := range []int{4096, 8192} {
		for seed := uint64(1); seed <= 3; seed++ {
			add("fig9", tuples, 300, seed, false)
		}
	}
	for seed := uint64(11); seed <= 18; seed++ {
		add("fig9", 8192, 500, seed, false)
	}
	for seed := uint64(21); seed <= 24; seed++ {
		add("fig9", 8192, 500, seed, true)
	}
	add("table1", 131072, 10000, 1, false)

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodeStrict(b)
		if err != nil {
			return
		}
		ns := s.Normalized()
		if ns.Validate() != nil {
			return
		}
		canon := ns.Canonical()
		back, err := decodeStrict(canon)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, canon)
		}
		if again := back.Normalized().Canonical(); !bytes.Equal(again, canon) {
			t.Fatalf("canonical encoding changed on a round trip:\n%s\n%s", canon, again)
		}
		if back.Hash() != ns.Hash() {
			t.Fatalf("hash changed on a round trip: %s vs %s", back.Hash(), ns.Hash())
		}
	})
}
