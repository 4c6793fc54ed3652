package perfbench

import (
	"fmt"
	"math"
	"time"

	"actdsm"
	"actdsm/internal/dsm"
	"actdsm/internal/sim"
)

// The diff-density leg times the diff kernel on its own, outside any
// run: dsm.AppendDiff and dsm.ApplyDiff on one page at fixed fractions
// of dirty words, and at the density the workload's diffs actually had.
// A kernel change can win on sparse pages and lose on dense ones, so
// both ends are measured.

const pageWords = actdsm.PageSize / 4

// densityPoints are the fixed dirty-word fractions, with their metric
// suffixes.
var densityPoints = []struct {
	suffix string
	frac   float64
}{
	{"0pct", 0}, {"1pct", 0.01}, {"50pct", 0.5}, {"100pct", 1},
}

// workloadDensity converts the mean diff size into a dirty-word
// fraction: the share of the page the diff's bytes cover.
func workloadDensity(bytesPerDiff float64) float64 {
	f := bytesPerDiff / actdsm.PageSize
	return math.Max(0, math.Min(1, f))
}

// dirtyPage returns a twin and a copy of it with round(frac × words)
// words changed at seeded random positions.
func dirtyPage(frac float64, seed uint64) (twin, cur []byte) {
	rng := sim.NewRNG(seed)
	twin = make([]byte, actdsm.PageSize)
	for i := range twin {
		twin[i] = byte(rng.Intn(256))
	}
	cur = append([]byte(nil), twin...)
	for _, w := range rng.Perm(pageWords)[:int(math.Round(frac*pageWords))] {
		cur[4*w] ^= 0xff
	}
	return twin, cur
}

// timeNS returns the median over rounds of the mean ns per call of fn.
func timeNS(rounds, reps int, fn func()) float64 {
	xs := make([]float64, rounds)
	for r := range xs {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		xs[r] = float64(time.Since(t0).Nanoseconds()) / float64(reps)
	}
	return median(xs)
}

// densityLeg measures the kernel at every density point.
func densityLeg(seed uint64, bytesPerDiff float64) ([]metric, error) {
	const rounds, reps = 7, 2000
	points := append(densityPoints[:len(densityPoints):len(densityPoints)],
		struct {
			suffix string
			frac   float64
		}{"workload", workloadDensity(bytesPerDiff)})
	var out []metric
	for _, pt := range points {
		twin, cur := dirtyPage(pt.frac, seed)
		buf := make([]byte, 0, 2*actdsm.PageSize)
		diff := dsm.AppendDiff(nil, twin, cur)
		page := append([]byte(nil), twin...)
		if err := dsm.ApplyDiff(page, diff); err != nil {
			return nil, fmt.Errorf("density %s: %w", pt.suffix, err)
		}
		if string(page) != string(cur) {
			return nil, fmt.Errorf("density %s: applied diff does not reproduce the page", pt.suffix)
		}
		diffNS := timeNS(rounds, reps, func() { buf = dsm.AppendDiff(buf[:0], twin, cur) })
		var applyErr error
		applyNS := timeNS(rounds, reps, func() {
			if err := dsm.ApplyDiff(page, diff); err != nil {
				applyErr = err
			}
		})
		if applyErr != nil {
			return nil, fmt.Errorf("density %s: %w", pt.suffix, applyErr)
		}
		out = append(out,
			metric{Name: "dsm.diff_ns_per_page." + pt.suffix, Value: diffNS, Unit: "ns", Samples: rounds},
			metric{Name: "dsm.apply_ns_per_page." + pt.suffix, Value: applyNS, Unit: "ns", Samples: rounds})
	}
	out = append(out, metric{Name: "dsm.workload_dirty_pct", Value: 100 * workloadDensity(bytesPerDiff), Unit: "%"})
	return out, nil
}
