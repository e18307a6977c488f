package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 4}, 4},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 7.625},
		{[]float64{5, 1, 4}, 1, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{99, 75, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := tailPercentile(c.n, 10)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(1-got/100) < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than 10 samples beyond", c.n, got)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestTallyErrorRate(t *testing.T) {
	var ta tally
	if ta.errorRate() != 0 {
		t.Fatal("empty tally must read 0")
	}
	ta.check(true, "ok")
	ta.check(false, "job %d refused", 7)
	ta.check(true, "ok")
	ta.check(false, "hash differs")
	if ta.attempted != 4 || ta.failed() != 2 || ta.errorRate() != 0.5 {
		t.Fatalf("tally = %d attempted, %d failed, rate %v", ta.attempted, ta.failed(), ta.errorRate())
	}
	if ta.failures[0] != "job 7 refused" {
		t.Errorf("failure text %q", ta.failures[0])
	}
}

func TestExactCountsFailLoudlyOnChange(t *testing.T) {
	dir := t.TempDir()
	mk := func(v float64) *run {
		return &run{workload: "w", outDir: dir, values: map[string]float64{"par.tasks": v, "step_s": v}}
	}
	first := mk(92)
	checkExactCounts(first, "src")
	if first.tally.attempted != 0 {
		t.Fatalf("the first run only records counts, got %d checks", first.tally.attempted)
	}
	same := mk(92)
	checkExactCounts(same, "src")
	if same.tally.attempted != 1 || same.tally.failed() != 0 {
		t.Fatalf("repeat run: %s", &same.tally)
	}
	changed := mk(93)
	checkExactCounts(changed, "src")
	if changed.tally.failed() != 1 {
		t.Fatalf("a changed count must fail: %s", &changed.tally)
	}
	other := mk(93)
	checkExactCounts(other, "other-src")
	if other.tally.attempted != 0 {
		t.Fatal("counts are compared only within one source digest")
	}
}

func TestModeOrderAlternates(t *testing.T) {
	before := func(order []string, a, b string) bool {
		for _, m := range order {
			if m == a {
				return true
			}
			if m == b {
				return false
			}
		}
		t.Fatalf("%v lacks %s or %s", order, a, b)
		return false
	}
	for seed := int64(0); seed < 10; seed++ {
		o, next := modeOrder(seed), modeOrder(seed+1)
		if len(o) != len(modeNames) {
			t.Fatalf("seed %d: order %v", seed, o)
		}
		for _, pair := range [][2]string{{"plan", "taskplan"}, {"taskplan", "taskplan_reorder"}} {
			if before(o, pair[0], pair[1]) == before(next, pair[0], pair[1]) {
				t.Errorf("seeds %d and %d run %s and %s in the same order", seed, seed+1, pair[0], pair[1])
			}
		}
	}
}
