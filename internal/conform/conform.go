// Package conform is the differential-conformance harness of the
// reproduction: it runs the SAME shallow-water problem — one RK-4 step or a
// short trajectory — through every execution strategy the repository has and
// cross-checks the full state vectors.
//
// The paper's contribution rests on an equivalence claim: the original
// scatter loops (Algorithm 2), the regularity-aware gather refactoring
// (Algorithm 3), the branch-free ±1 label-matrix form (Algorithm 4), any
// host/device split of pattern instances (Figure 4b) and the distributed
// halo-exchange runs must all compute the same model. The repo asserts
// pieces of that informally in scattered unit tests; this package makes the
// claim systematic and executable:
//
//   - Case describes one scenario (mesh, configuration, initial condition,
//     step count) — the named Williamson/Galewsky cases or a seeded random
//     perturbed mesh with a random-but-physical state (random.go).
//   - Strategy is one way of executing the trajectory: the branch-free
//     gather solver (serial or threaded), the Algorithm-3 branchy-gather and
//     Algorithm-2 scatter reference steppers, the hybrid executor at several
//     migration fractions, and in-process dist multi-rank runs
//     (strategies.go; DistProc in dist.go launches real processes).
//   - Compare/CompareResults is the tolerance-aware comparator: max-ULP
//     distance, relative l2/linf error, and the first-divergence location
//     (variable, mesh element, RK step and stage) (compare.go).
//   - InjectPerturbation deliberately corrupts one pattern kernel so the
//     negative path — the harness actually detecting a wrong kernel — is
//     itself tested (perturb.go).
//
// The harness is exposed three ways: table-driven conformance suites in the
// packages under test (sw, hybrid, dist), native Go fuzz targets
// (FuzzStepEquivalence here, FuzzReductionForms, FuzzMeshRoundTrip), and the
// cmd/conformance CLI wired into scripts/ci.sh.
package conform

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/sw"
	"repro/internal/testcases"
)

// Case is one conformance scenario: every strategy integrates Steps RK-4
// steps of the configured model from the same initial condition on the same
// mesh and must produce the same trajectory.
type Case struct {
	Name string
	Mesh *mesh.Mesh
	Cfg  sw.Config
	// Setup fills the initial state (and topography) of a fresh solver and
	// calls Init, exactly like the testcases.SetupTC* functions. It must be
	// deterministic and mesh-pure: distributed strategies invoke it once per
	// rank on the rank-local mesh.
	Setup func(*sw.Solver)
	Steps int
}

// StageState is one recorded RK substep boundary: the provisional state
// after stages 0..2, the accepted state after stage 3 — the same points
// where the distributed runs exchange halos.
type StageState struct {
	Step, Stage int
	H, U        []float64
}

// Result is one strategy's trajectory summary.
type Result struct {
	Strategy string
	// Final accepted state in global mesh indexing.
	H, U []float64
	// Mass after each step (index 0 is the initial state) — available for
	// every strategy, including distributed ones (global allreduce).
	Mass []float64
	// Inv holds the full invariant set after each step (index 0 initial).
	// Empty for distributed strategies, whose diagnostics live rank-local.
	Inv []sw.Invariants
	// Stages holds per-substep snapshots in time order when the strategy
	// was run with stage recording; used to localize the FIRST divergence
	// by RK step and stage. Empty otherwise.
	Stages []StageState
}

// NamedCase builds one of the repository's named test cases on mesh m.
// Recognized names: tc1, tc2, tc5, tc6, galewsky.
func NamedCase(name string, m *mesh.Mesh, steps int) (*Case, error) {
	cfg := sw.DefaultConfig(m)
	var setup func(*sw.Solver)
	switch name {
	case "tc1":
		cfg.AdvectionOnly = true
		setup = func(s *sw.Solver) { testcases.SetupTC1(s, 0.7853981633974483) } // pi/4
	case "tc2":
		setup = testcases.SetupTC2
	case "tc5":
		setup = testcases.SetupTC5
	case "tc6":
		setup = testcases.SetupTC6
	case "galewsky":
		setup = func(s *sw.Solver) { testcases.SetupGalewsky(s, true) }
	default:
		return nil, fmt.Errorf("conform: unknown case %q", name)
	}
	return &Case{Name: name, Mesh: m, Cfg: cfg, Setup: setup, Steps: steps}, nil
}

// NamedCaseNames lists the named cases in canonical order.
func NamedCaseNames() []string { return []string{"tc1", "tc2", "tc5", "tc6", "galewsky"} }

func cloneField(x []float64) []float64 { return append([]float64(nil), x...) }
