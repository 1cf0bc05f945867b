package spec

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gsdram/internal/flight"
	"gsdram/internal/metrics"
	"gsdram/internal/telemetry"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/capture_digests.txt with current output")

// TestCaptureDigests pins the bytes of the three capture exports
// (gsbench -trace-out, -flight-out and -prom-out) for a tiny telemetered,
// flight-armed run of fig9 (scalar accesses) and hashjoin (the indexed
// coalescer). The exports run to hundreds of kilobytes, so the test
// compares SHA-256 digests against testdata/capture_digests.txt instead
// of golden files. Regenerate with:
// go test ./internal/spec -run CaptureDigests -update
func TestCaptureDigests(t *testing.T) {
	var got bytes.Buffer
	for _, exp := range []string{"fig9", "hashjoin"} {
		s := quickSpec()
		s.Experiment, s.Txns, s.Workers = exp, 20, 1
		s.Telemetry, s.Epoch = true, 10_000
		out, err := RunFlight(s)
		if err != nil {
			t.Fatal(err)
		}
		var trace, fl, prom bytes.Buffer
		m := telemetry.Manifest{Tool: "gsbench", GoVersion: "go-test", Seed: s.Seed, Workers: 1, Epoch: s.Epoch}
		if err := telemetry.WriteTrace(&trace, m, out.Runs); err != nil {
			t.Fatal(err)
		}
		if err := flight.WriteNDJSON(&fl, out.Flight, nil); err != nil {
			t.Fatal(err)
		}
		var regs []metrics.LabeledRegistry
		for _, r := range out.Runs {
			regs = append(regs, metrics.LabeledRegistry{
				Labels: map[string]string{"experiment": exp, "run": r.Label},
				Reg:    r.Registry,
			})
		}
		if err := metrics.WritePrometheusMulti(&prom, regs); err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct {
			name string
			b    []byte
		}{{"trace", trace.Bytes()}, {"flight", fl.Bytes()}, {"prom", prom.Bytes()}} {
			fmt.Fprintf(&got, "%s %s %d %x\n", exp, f.name, len(f.b), sha256.Sum256(f.b))
		}
	}
	path := filepath.Join("testdata", "capture_digests.txt")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read digests (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("capture exports drifted:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
