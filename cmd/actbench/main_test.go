package main

import (
	"strings"
	"testing"
)

// TestRunRejectsUnknownSection checks that a mistyped -only name fails
// before anything runs and lists the valid names, rather than turning
// a gate off by selecting nothing.
func TestRunRejectsUnknownSection(t *testing.T) {
	for _, only := range []string{"prefetchx", "table1,prefetchx", "prefetch,"} {
		err := run([]string{"-only", only})
		if err == nil {
			t.Errorf("-only %q: run succeeded", only)
			continue
		}
		for _, want := range []string{"unknown -only section", "table1", "prefetch", "transport", "sor"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-only %q: error %q does not mention %q", only, err, want)
			}
		}
	}
}

// TestRunRejectsLaneFileWithoutOneLane checks that -json and -baseline
// fail unless -only selects exactly one benchmark lane: with none or
// several, the file would be silently ignored or applied to the wrong
// lane.
func TestRunRejectsLaneFileWithoutOneLane(t *testing.T) {
	for _, args := range [][]string{
		{"-json", "out.json"},
		{"-baseline", "BENCH_prefetch.json"},
		{"-only", "table1", "-baseline", "BENCH_prefetch.json"},
		{"-only", "prefetch,managers", "-json", "out.json", "-baseline", "BENCH_prefetch.json"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "exactly one benchmark lane") {
			t.Errorf("%q: got %v, want an exactly-one-lane error", args, err)
		}
	}
}
