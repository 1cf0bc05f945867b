package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestCheck: bad flag combinations are rejected by check, which runs
// before any experiment does.
func TestCheck(t *testing.T) {
	cases := []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-exp", "fig9", "-sample", "-sample-interval", "1000", "-sample-warmup", "512", "-sample-measure", "512"}, "interval"},
		{[]string{"-sample", "-noinline"}, "noinline"},
		{[]string{"-exp", "fig9", "-sample-seed", "7"}, "only take effect with -sample"},
		{[]string{"-exp", "fig99"}, "unknown experiment"},
		{[]string{"-exp", "fig9sampled", "-sample-interval", "8192"}, ""},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("gsbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var ef expFlags
		ef.register(fs)
		exp := fs.String("exp", "all", "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := ef.check(selected(*exp)...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: rejected: %v", tc.args, err)
		case tc.want != "" && err == nil:
			t.Errorf("%v: accepted", tc.args)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}
