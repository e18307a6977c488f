package sw

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/par"
)

// Structural and equivalence tests of the float32 instantiation of the
// compiled plan (the fast mode). Its accuracy against the float64 baseline
// is internal/conform's business (Fast32Band).

// TestFast32PlanShape pins the float32 program's structure: loads at the
// entry and stores at the exit, no hook slots, and the stage-3 diagnostics
// nothing reads once the next step re-solves its entry diagnostics elided —
// only what feeds the stored invariants (E, A3, G) survives.
func TestFast32PlanShape(t *testing.T) {
	m := planTestMesh(t, 3)
	s := planTestSolver(t, m, DefaultConfig(m), 1)
	r, err := NewFast32Runner(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := r.OpIDs()
	joined := " " + strings.Join(ids, " ") + " "
	for _, want := range []string{"load_h@in", "load_b@in", "load_u@in", "D1@in", "G@in",
		"A1+X4+X2@0", "A1+X4+commit@3", "E@3", "A3@3", "G@3",
		"store_h@3", "store_u@3", "store_ke@3", "store_hv@3", "store_pv@3"} {
		if !strings.Contains(joined, " "+want+" ") {
			t.Errorf("float32 schedule %v missing op %s", ids, want)
		}
	}
	if strings.Contains(joined, "hook@") {
		t.Errorf("float32 schedule carries hook slots: %v", ids)
	}
	elided := map[string]bool{}
	for _, id := range r.Elided() {
		elided[id] = true
	}
	for _, id := range []string{"D1@3", "F@3", "C2@3", "H1@3", "B2@3"} {
		if !elided[id] {
			t.Errorf("float32 plan keeps dead stage-3 diagnostic %s; elided = %v", id, r.Elided())
		}
	}
	// The float64 plan of the same configuration needs 21 barriers; the
	// float32 program adds the entry-diagnostic levels. Exact count pinned
	// so schedule regressions are visible.
	if got := r.Barriers(); got != 24 {
		t.Errorf("float32 plan has %d barriers, want 24", got)
	}
}

// TestFast32TaskPlanMatchesPlanBitwise: the float32 task graph runs the
// same closures over the same ranges as the float32 barrier schedule, so
// the two agree to the last bit across the configuration matrix, with and
// without stealing. Each float32 compile counts as one plan compile.
func TestFast32TaskPlanMatchesPlanBitwise(t *testing.T) {
	m := planTestMesh(t, 3)
	for name, cfg := range planConfigs(m) {
		for _, nw := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", name, nw), func(t *testing.T) {
				pool := par.NewPool(nw)
				defer pool.Close()
				before := PlanCompileCount()
				ps := planTestSolver(t, m, cfg, 31)
				pr, err := NewFast32Runner(ps, pool)
				if err != nil {
					t.Fatal(err)
				}
				ps.Runner = pr
				ts := planTestSolver(t, m, cfg, 31)
				tr, err := NewFast32TaskPlanRunner(ts, pool)
				if err != nil {
					t.Fatal(err)
				}
				ts.Runner = tr
				if got := PlanCompileCount() - before; got != 2 {
					t.Errorf("two float32 compiles counted as %d", got)
				}
				for i := 0; i < 6; i++ {
					ps.Step()
					ts.Step()
					requireSame(t, fmt.Sprintf("step %d h", i), ts.State.H, ps.State.H)
					requireSame(t, fmt.Sprintf("step %d u", i), ts.State.U, ps.State.U)
				}
				requireSame(t, "ke", ts.Diag.KE, ps.Diag.KE)
				requireSame(t, "h_vertex", ts.Diag.HVertex, ps.Diag.HVertex)
				requireSame(t, "pv_vertex", ts.Diag.PVVertex, ps.Diag.PVVertex)
				if tr.TaskGraph().TasksExecuted() == 0 {
					t.Error("Step did not run the float32 task graph")
				}
			})
		}
	}
}

// TestFast32HookFallsBackToFloat64: the float32 program has no hook slots,
// so with a PostSubstep hook installed Step takes the float64 kernel loop —
// bitwise the serial trajectory, hook observations included.
func TestFast32HookFallsBackToFloat64(t *testing.T) {
	m := planTestMesh(t, 2)
	cfg := DefaultConfig(m)
	ref := planTestSolver(t, m, cfg, 3)
	var refHooks int
	ref.PostSubstep = func(int, *State) { refHooks++ }
	s := planTestSolver(t, m, cfg, 3)
	r, err := NewFast32Runner(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Runner = r
	var hooks int
	s.PostSubstep = func(int, *State) { hooks++ }
	for i := 0; i < 3; i++ {
		ref.Step()
		s.Step()
	}
	requireSame(t, "h", s.State.H, ref.State.H)
	requireSame(t, "u", s.State.U, ref.State.U)
	if hooks != refHooks || hooks != 12 {
		t.Errorf("hook fired %d times (reference %d), want 12", hooks, refHooks)
	}
}
