package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
)

// Lane is one gated benchmark: a measurement whose report is committed
// as BENCH_<Name>.json at the repository root, plus the regression gate
// that compares a fresh report against that committed baseline.
type Lane struct {
	// Name selects the lane (actbench -only Name) and names its
	// artifact, BENCH_<Name>.json.
	Name string
	// Title heads the lane's actbench section.
	Title string
	// Run measures the lane and returns the report (marshal it with
	// ReportJSON) and its human-readable rendering.
	Run func(Options) (report any, text string, err error)
	// Gate checks a current report against a baseline, both as JSON.
	// It returns a human-readable comparison, and an error naming every
	// failed check.
	Gate func(baseline, current []byte) (string, error)
}

// Lanes is every gated benchmark, in actbench section order.
var Lanes = []Lane{
	prefetchLane,
	hotpathLane,
	managersLane,
	servingLane,
	placementLane,
	failoverLane,
	transportLane,
}

// ReportJSON marshals a lane report in the committed BENCH_*.json
// layout: two-space indented with a trailing newline.
func ReportJSON(v any) ([]byte, error) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// runFixed adapts a lane whose measurement takes no options.
func runFixed[R any](measure func() (R, error), format func(R) string) func(Options) (any, string, error) {
	return func(Options) (any, string, error) {
		rep, err := measure()
		if err != nil {
			return nil, "", err
		}
		return rep, format(rep), nil
	}
}

// gate builds a Lane.Gate over report type R. Both reports must decode
// strictly into R — an unknown field means the file belongs to another
// lane or an older schema — and neither may be empty, so a `{}` file
// cannot pass by giving the checks nothing to compare. check writes the
// comparison to b and returns one line per failed check.
func gate[R any](lane string, check func(base, cur R, b *strings.Builder) []string) func(baseline, current []byte) (string, error) {
	decode := func(data []byte) (R, error) {
		var r R
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			return r, err
		}
		if reflect.ValueOf(&r).Elem().IsZero() {
			return r, fmt.Errorf("empty %s report", lane)
		}
		return r, nil
	}
	return func(baseline, current []byte) (string, error) {
		base, err := decode(baseline)
		if err != nil {
			return "", fmt.Errorf("baseline: %w", err)
		}
		cur, err := decode(current)
		if err != nil {
			return "", fmt.Errorf("current: %w", err)
		}
		var b strings.Builder
		if failures := check(base, cur, &b); len(failures) > 0 {
			return b.String(), fmt.Errorf("%s benchmark regression:\n  %s",
				lane, strings.Join(failures, "\n  "))
		}
		return b.String(), nil
	}
}
