package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so spreads printed here match the ones computed from the printed values.
// A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// reportedPercentiles are the tail percentiles a timing may be reported at,
// highest first.
var reportedPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest reported percentile of n samples that
// leaves at least minBeyond samples above it, and false when even the
// median does not.
func tailPercentile(n, minBeyond int) (float64, bool) {
	for _, p := range reportedPercentiles {
		if float64(n)*(1-p/100) >= float64(minBeyond)-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tally counts the output checks of one run: every check is one attempted
// operation, every failing check one failed operation, and each failure
// keeps its description so the run's record names it.
type tally struct {
	attempted int
	failures  []string
}

// check records one attempted operation; ok == false records a failure
// described by the format arguments.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) failed() int { return len(t.failures) }

// errorRate is failed operations over attempted ones (0 when nothing was
// attempted).
func (t *tally) errorRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

func (t *tally) String() string {
	return fmt.Sprintf("%d/%d failed: %s", t.failed(), t.attempted, strings.Join(t.failures, "; "))
}
