// Package mutants is a catalogue of source mutants: small deliberate
// bugs in the simulator and its tools, each paired with the check that
// must catch it. TestMutants applies each mutant with the go command's
// -overlay flag, so the tree is never edited, and proves both halves of
// every row: the check passes on the tree as it is, and fails as stated
// on the mutated tree. A refactor that blunts a check, or that moves a
// mutated line, fails here.
//
// Run one row with
//
//	go test -run 'TestMutants/ctl-and-or' -v ./internal/mutants
package mutants

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// A mutant is one row of the catalogue.
type mutant struct {
	name string
	// file is the target, relative to the module root. old must occur in
	// it exactly once; the mutant replaces it with new.
	file, old, new string
	// The check is either test, a test or fuzz target (its seed corpus)
	// of package pkg run by go test, or gsbench, a gsbench command line
	// built from the tree under test and run in an empty directory.
	pkg, test string
	gsbench   []string
	// want is a regexp that the check's output must match when the
	// mutant makes it fail.
	want string
}

func TestMutants(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	readSources(t, root)
	dir := t.TempDir()
	cleanGsbench := sync.OnceValues(func() (string, error) {
		return buildGsbench(root, dir, "")
	})
	for _, m := range catalogue {
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			want, err := regexp.Compile(m.want)
			if err != nil {
				t.Fatalf("want: %v", err)
			}
			if (m.test == "") == (m.gsbench == nil) {
				t.Fatal("a row needs exactly one check: a test or a gsbench command line")
			}
			overlay := m.apply(t, root)

			out, err := m.check(t, root, "", cleanGsbench)
			if err != nil {
				t.Fatalf("the check fails without the mutant: %v\n%s", err, out)
			}
			out, err = m.check(t, root, overlay, cleanGsbench)
			if err == nil {
				t.Fatalf("the mutant survives its check:\n%s", out)
			}
			if !want.Match(out) {
				t.Fatalf("the check fails (%v), but its output does not match %q:\n%s", err, m.want, out)
			}
		})
	}
}

// apply writes the mutated target to a temporary directory and returns
// the overlay file that puts it in place of the real one.
func (m *mutant) apply(t *testing.T, root string) string {
	target := filepath.Join(root, m.file)
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), m.old); n != 1 {
		t.Fatalf("%s: old matches %d times, want once:\n%s", m.file, n, m.old)
	}
	dir := t.TempDir()
	mutated := filepath.Join(dir, filepath.Base(m.file))
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	ov, err := json.Marshal(map[string]map[string]string{"Replace": {target: mutated}})
	if err != nil {
		t.Fatal(err)
	}
	overlay := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlay, ov, 0o644); err != nil {
		t.Fatal(err)
	}
	return overlay
}

// check runs the row's check on the tree under overlay, or on the tree
// as it is when overlay is empty, and returns its combined output.
// cleanGsbench builds gsbench from the tree as it is.
func (m *mutant) check(t *testing.T, root, overlay string, cleanGsbench func() (string, error)) ([]byte, error) {
	var ov []string
	if overlay != "" {
		ov = []string{"-overlay", overlay}
	}
	if m.gsbench == nil {
		cmd := exec.Command("go", append(append([]string{"test", "-run", "^" + m.test + "$"}, ov...), m.pkg)...)
		cmd.Dir = root
		return cmd.CombinedOutput()
	}
	build := cleanGsbench
	if overlay != "" {
		build = func() (string, error) { return buildGsbench(root, t.TempDir(), overlay) }
	}
	bin, err := build()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, m.gsbench...)
	cmd.Dir = t.TempDir()
	return cmd.CombinedOutput()
}

// buildGsbench builds cmd/gsbench into dir, under overlay unless it is
// empty, and returns the binary's path.
func buildGsbench(root, dir, overlay string) (string, error) {
	bin := filepath.Join(dir, "gsbench")
	args := []string{"build", "-o", bin}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	cmd := exec.Command("go", append(args, "./cmd/gsbench")...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building gsbench: %v\n%s", err, out)
	}
	return bin, nil
}

// readSources reads every .go file of the module. go test caches this
// package's result by the files its own process opens, and it cannot
// see what the nested builds read; reading them all makes any edit that
// could blunt a check run the catalogue again.
func readSources(t *testing.T, root string) {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			_, err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
