package conform

import (
	"testing"
)

// Tests for the float32 fast-mode strategy: every named case and a family of
// seeded random cases must track the float64 baseline within the documented
// band (Fast32Band per step), and — the negative control — a much tighter
// band must fail, so the tolerance is demonstrably load-bearing rather than
// vacuously wide.

// TestFast32NamedCases holds the fast32 strategies to their documented band
// on every named case over a longer trajectory than the core matrix test,
// under the barrier schedule and the task graph at both worker counts.
func TestFast32NamedCases(t *testing.T) {
	base := Baseline()
	steps := 6
	for _, name := range NamedCaseNames() {
		c, err := NamedCase(name, testMesh, steps)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := base.Run(c, false)
		if err != nil {
			t.Fatalf("%s: baseline: %v", name, err)
		}
		for _, s := range []Strategy{Fast32(1), Fast32(4), Fast32Task(1), Fast32Task(4)} {
			res, err := s.Run(c, false)
			if err != nil {
				t.Errorf("%s/%s: %v", name, s.Name, err)
				continue
			}
			tol := PairTolerance(base, s, c.Steps)
			d, ok := CompareResults(ref, res, tol)
			if !ok {
				t.Errorf("%s/%s outside the documented band %.1e: %v",
					name, s.Name, tol.RelLInf, d)
			} else {
				t.Logf("%s/%s: %v (band %.1e)", name, s.Name, d, tol.RelLInf)
			}
		}
	}
}

// TestFast32RandomCases sweeps seeded random cases (jittered meshes, random
// configuration corners: APVM on/off, high-order thickness, viscosity,
// Rayleigh friction, advection-only) under the relative comparator, for the
// barrier schedule and the task graph.
func TestFast32RandomCases(t *testing.T) {
	base := Baseline()
	for _, c := range RandomCases(7, 4, 2, 3) {
		ref, err := base.Run(c, false)
		if err != nil {
			t.Fatalf("%s: baseline: %v", c.Name, err)
		}
		for _, fast := range []Strategy{Fast32(2), Fast32Task(2)} {
			res, err := fast.Run(c, false)
			if err != nil {
				t.Errorf("%s/%s: %v", c.Name, fast.Name, err)
				continue
			}
			tol := PairTolerance(base, fast, c.Steps)
			d, ok := CompareResults(ref, res, tol)
			if !ok {
				t.Errorf("%s/%s outside the documented band %.1e: %v",
					c.Name, fast.Name, tol.RelLInf, d)
			} else {
				t.Logf("%s/%s: %v (band %.1e)", c.Name, fast.Name, d, tol.RelLInf)
			}
		}
	}
}

// TestFast32BandNegative is the self-check: a band 100x tighter than the
// documented one must reject at least one named case. If this ever passes
// with room to spare, the documented band has drifted far from reality and
// should be re-calibrated.
func TestFast32BandNegative(t *testing.T) {
	base := Baseline()
	fast := Fast32(1)
	steps := 6
	rejected := false
	for _, name := range NamedCaseNames() {
		c, err := NamedCase(name, testMesh, steps)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := base.Run(c, false)
		if err != nil {
			t.Fatalf("%s: baseline: %v", name, err)
		}
		res, err := fast.Run(c, false)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, fast.Name, err)
		}
		tight := Tolerance{MaxULP: 4, RelLInf: Fast32Band / 100 * float64(c.Steps+1)}
		if _, ok := CompareResults(ref, res, tight); !ok {
			rejected = true
		}
	}
	if !rejected {
		t.Errorf("a 100x tighter band (%.1e/step) accepted every named case; "+
			"the documented Fast32Band is vacuously wide", Fast32Band/100)
	}
}

// TestFast32IsActuallyFloat32 pins that the strategy exercises the float32
// path at all: against the baseline, the result must differ by far more than
// any float64 reordering could explain (ULP distances in the billions, not
// the ReorderTol range). Guards against a silent fallback to the float64
// step (e.g. a future dispatch-condition change).
func TestFast32IsActuallyFloat32(t *testing.T) {
	base := Baseline()
	fast := Fast32(1)
	c, err := NamedCase("tc5", testMesh, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := base.Run(c, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fast.Run(c, false)
	if err != nil {
		t.Fatal(err)
	}
	d := CompareStates(ref.H, ref.U, res.H, res.U)
	if d.RelLInf < 1e-9 {
		t.Errorf("fast32 result is float64-close to the baseline (rel_linf=%.3e); "+
			"the float32 fast path did not run", d.RelLInf)
	}
}
