package sw_test

import (
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sw"
	"repro/internal/testcases"
)

// noopOverlap builds an Overlap whose exchange does nothing and whose
// interior prefixes shrink by `width` entities per threshold level. On a
// single-process solver every value is always valid, so ANY split must be
// bitwise-neutral: the overlay merely reorders which elements are computed
// before vs after the wait, with each element computed exactly once by
// identical arithmetic. This pins the mechanical half of the overlay
// (coverage, ordering, barriers) independently of real distribution; the
// dist tests pin the taint/depth half.
func noopOverlap(nc, ne, nv, width int, posts, waits *int) *sw.Overlap {
	cut := func(n, t int) int {
		k := n - width*(t+1)
		if k < 0 {
			return 0
		}
		return k
	}
	return &sw.Overlap{
		Post:             func(stage int, st *sw.State) { *posts++ },
		Wait:             func(stage int, st *sw.State) { *waits++ },
		InteriorCells:    func(t int) int { return cut(nc, t) },
		InteriorEdges:    func(t int) int { return cut(ne, t) },
		InteriorVertices: func(t int) int { return cut(nv, t) },
	}
}

// The all-interior (width 0) and all-boundary (width huge) extremes are
// valid on ANY mesh: the former never defers work past the wait, the latter
// defers everything, so neither can violate a stencil dependency. Mid-splits
// are only licensed by a real halo-depth ordering — see
// TestOverlapRealDepthSplitBitwiseNeutral below (and the dist tests for
// real exchanges).
func TestOverlapSplitExtremesBitwiseNeutral(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, width := range []int{0, 1 << 20} {
			ref := newTC2Solver(t, 3)
			ref.Runner = sw.MustNewPlanRunner(ref, nil)
			ref.Run(3)

			s := newTC2Solver(t, 3)
			pool := par.NewPool(workers)
			defer pool.Close()
			m := s.M
			var posts, waits int
			ovr, err := sw.NewOverlapPlanRunner(s, pool,
				noopOverlap(m.NCells, m.NEdges, m.NVertices, width, &posts, &waits))
			if err != nil {
				t.Fatalf("workers=%d width=%d: %v", workers, width, err)
			}
			s.Runner = ovr
			s.Run(3)
			if posts != 12 || waits != 12 {
				t.Fatalf("workers=%d width=%d: %d posts, %d waits; want 12 each (4/step x 3 steps)",
					workers, width, posts, waits)
			}
			for i := range ref.State.H {
				if s.State.H[i] != ref.State.H[i] {
					t.Fatalf("workers=%d width=%d: H[%d] %v != %v",
						workers, width, i, s.State.H[i], ref.State.H[i])
				}
			}
			for i := range ref.State.U {
				if s.State.U[i] != ref.State.U[i] {
					t.Fatalf("workers=%d width=%d: U[%d] %v != %v",
						workers, width, i, s.State.U[i], ref.State.U[i])
				}
			}
		}
	}
}

// A real mid-split: one rank's local mesh with its halo-depth interior
// prefixes, but a no-op exchange. Blocking reference and overlaid runner
// then see identical inputs everywhere (both leave halo slots stale), so if
// the interior slices respect the stencil-safety invariant the full state —
// halo included — must match bitwise. A violated dependency (an interior
// element reading a not-yet-computed boundary element) would surface as a
// divergence, exactly like the fake-width split this test replaces did.
func TestOverlapRealDepthSplitBitwiseNeutral(t *testing.T) {
	g := testMesh(t, 3)
	p, err := partition.Bisect(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := partition.Extract(g, p, 0, 3)
	cfg := sw.DefaultConfig(l.M)

	newLocal := func() *sw.Solver {
		s, err := sw.NewSolver(l.M, cfg)
		if err != nil {
			t.Fatal(err)
		}
		testcases.SetupTC2(s)
		return s
	}
	ref := newLocal()
	ref.Runner = sw.MustNewPlanRunner(ref, nil)
	ref.Run(3)

	for _, workers := range []int{1, 2} {
		s := newLocal()
		pool := par.NewPool(workers)
		defer pool.Close()
		var posts, waits int
		ov := &sw.Overlap{
			Post:             func(stage int, st *sw.State) { posts++ },
			Wait:             func(stage int, st *sw.State) { waits++ },
			InteriorCells:    l.InteriorCells,
			InteriorEdges:    l.InteriorEdges,
			InteriorVertices: l.InteriorVertices,
		}
		r, err := sw.NewOverlapPlanRunner(s, pool, ov)
		if err != nil {
			t.Fatal(err)
		}
		// The split must be a genuine mid-split on this mesh, or the test
		// proves nothing.
		if ic := l.InteriorCells(1); ic <= 0 || ic >= l.M.NCells {
			t.Fatalf("degenerate interior split %d of %d cells", ic, l.M.NCells)
		}
		s.Runner = r
		s.Run(3)
		for i := range ref.State.H {
			if s.State.H[i] != ref.State.H[i] {
				t.Fatalf("workers=%d: H[%d] %v != %v (depth %d)",
					workers, i, s.State.H[i], ref.State.H[i], l.CellDepth[i])
			}
		}
		for i := range ref.State.U {
			if s.State.U[i] != ref.State.U[i] {
				t.Fatalf("workers=%d: U[%d] %v != %v (depth %d)",
					workers, i, s.State.U[i], ref.State.U[i], l.EdgeDepth[i])
			}
		}
	}
}

func TestOverlapScheduleStructure(t *testing.T) {
	s := newTC2Solver(t, 2)
	m := s.M
	var posts, waits int
	r, err := sw.NewOverlapPlanRunner(s, nil, noopOverlap(m.NCells, m.NEdges, m.NVertices, 5, &posts, &waits))
	if err != nil {
		t.Fatal(err)
	}
	ids := r.OpIDs()
	count := func(sub string) int {
		n := 0
		for _, id := range ids {
			if strings.Contains(id, sub) {
				n++
			}
		}
		return n
	}
	if count("post@") != 4 || count("wait@") != 4 {
		t.Fatalf("schedule has %d posts, %d waits, want 4 each: %v", count("post@"), count("wait@"), ids)
	}
	nInt, nBnd := count(":int"), count(":bnd")
	if nInt == 0 || nInt != nBnd {
		t.Fatalf("schedule has %d interior and %d boundary slices: %v", nInt, nBnd, ids)
	}
	// Per stage: post precedes every :int, wait sits between :int and :bnd.
	for stage := 0; stage < 4; stage++ {
		suf := []byte{'@', byte('0' + stage)}
		postAt, waitAt, lastInt, firstBnd := -1, -1, -1, len(ids)
		for i, id := range ids {
			switch {
			case id == "post"+string(suf):
				postAt = i
			case id == "wait"+string(suf):
				waitAt = i
			case strings.HasSuffix(id, string(suf)+":int"):
				lastInt = i
			case strings.HasSuffix(id, string(suf)+":bnd") && i < firstBnd:
				firstBnd = i
			}
		}
		if postAt < 0 || waitAt < 0 || !(postAt < waitAt && lastInt < waitAt && waitAt < firstBnd) {
			t.Fatalf("stage %d: post=%d lastInt=%d wait=%d firstBnd=%d out of order: %v",
				stage, postAt, lastInt, waitAt, firstBnd, ids)
		}
	}
}

func TestOverlapRunnerRejectsMissingCallbacks(t *testing.T) {
	s := newTC2Solver(t, 2)
	if _, err := sw.NewOverlapPlanRunner(s, nil, nil); err == nil {
		t.Fatal("nil Overlap accepted")
	}
	if _, err := sw.NewOverlapPlanRunner(s, nil, &sw.Overlap{}); err == nil {
		t.Fatal("empty Overlap accepted")
	}
}

// A PostSubstep hook must force the overlap runner OFF the plan path (its
// hook slots are gone); the kernel-loop fallback still honors the hook.
func TestOverlapRunnerFallsBackUnderHook(t *testing.T) {
	ref := newTC2Solver(t, 2)
	hooks := 0
	ref.PostSubstep = func(stage int, st *sw.State) { hooks++ }
	ref.Run(1)
	wantHooks := hooks
	if wantHooks == 0 {
		t.Fatal("reference run never invoked the hook")
	}

	s := newTC2Solver(t, 2)
	m := s.M
	var posts, waits int
	r, err := sw.NewOverlapPlanRunner(s, nil, noopOverlap(m.NCells, m.NEdges, m.NVertices, 5, &posts, &waits))
	if err != nil {
		t.Fatal(err)
	}
	s.Runner = r
	hooks = 0
	s.PostSubstep = func(stage int, st *sw.State) { hooks++ }
	s.Run(1)
	if posts != 0 || waits != 0 {
		t.Fatalf("overlap exchange ran (%d posts) despite an installed hook", posts)
	}
	if hooks != wantHooks {
		t.Fatalf("fallback invoked hook %d times, want %d", hooks, wantHooks)
	}
	for i := range ref.State.H {
		if s.State.H[i] != ref.State.H[i] {
			t.Fatalf("fallback H[%d] diverges", i)
		}
	}
}
