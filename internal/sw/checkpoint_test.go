package sw_test

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/sw"
	"repro/internal/testcases"
)

func TestCheckpointRestartBitwise(t *testing.T) {
	m := testMesh(t, 3)
	cfg := sw.DefaultConfig(m)

	// Continuous run of 10 steps.
	full, _ := sw.NewSolver(m, cfg)
	testcases.SetupTC5(full)
	full.Run(10)

	// 5 steps, checkpoint, restore into a FRESH solver, 5 more steps.
	first, _ := sw.NewSolver(m, cfg)
	testcases.SetupTC5(first)
	first.Run(5)
	var buf bytes.Buffer
	if err := first.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	second, _ := sw.NewSolver(m, cfg)
	if err := second.ReadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if second.StepCount != 5 || second.Time != first.Time {
		t.Fatalf("clock not restored: steps=%d time=%v", second.StepCount, second.Time)
	}
	second.Run(5)

	for c := range full.State.H {
		if full.State.H[c] != second.State.H[c] {
			t.Fatalf("restart diverges at cell %d", c)
		}
	}
	for e := range full.State.U {
		if full.State.U[e] != second.State.U[e] {
			t.Fatalf("restart diverges at edge %d", e)
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	m := testMesh(t, 2)
	s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
	testcases.SetupTC2(s)
	s.Run(2)
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := s.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	s2, _ := sw.NewSolver(m, sw.DefaultConfig(m))
	if err := s2.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if s2.State.H[0] != s.State.H[0] || s2.Time != s.Time {
		t.Error("file checkpoint mismatch")
	}
}

func TestCheckpointRejectsMismatchedMesh(t *testing.T) {
	m2 := testMesh(t, 2)
	m3 := testMesh(t, 3)
	s2, _ := sw.NewSolver(m2, sw.DefaultConfig(m2))
	testcases.SetupTC2(s2)
	var buf bytes.Buffer
	if err := s2.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	s3, _ := sw.NewSolver(m3, sw.DefaultConfig(m3))
	if err := s3.ReadCheckpoint(&buf); err == nil {
		t.Error("checkpoint for wrong mesh accepted")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	m := testMesh(t, 2)
	s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
	if err := s.ReadCheckpoint(bytes.NewReader([]byte("junkjunkjunkjunk"))); err == nil {
		t.Error("garbage checkpoint accepted")
	}
}

func TestViscosityDampsEnergyAndMatchesReference(t *testing.T) {
	m := testMesh(t, 3)
	cfg := sw.DefaultConfig(m)
	cfg.Viscosity = 1e5 // strong del^2 for a clear signal
	s, _ := sw.NewSolver(m, cfg)
	testcases.SetupTC6(s)
	e0 := s.ComputeInvariants().TotalEnergy
	s.Run(20)
	e1 := s.ComputeInvariants().TotalEnergy
	if e1 >= e0 {
		t.Errorf("viscosity did not damp energy: %v -> %v", e0, e1)
	}
	// Mass still conserved (viscosity acts on momentum only).
	// And the gather kernel matches the scatter reference with viscosity on.
	refD := sw.NewDiagnostics(m)
	s.ReferenceDiagnostics(s.State, refD)
	refT := sw.NewTendencies(m)
	s.ReferenceTend(s.State, refD, refT)
	pat := s.PatternByID("B1")
	pat.Run(0, pat.N)
	if r := relDiff(s.Tend.U, refT.U); r > 1e-11 {
		t.Errorf("viscous tend_u: gather vs scatter %v", r)
	}
}

func TestViscositySmoothsVorticity(t *testing.T) {
	m := testMesh(t, 3)
	run := func(nu float64) float64 {
		cfg := sw.DefaultConfig(m)
		cfg.Viscosity = nu
		s, _ := sw.NewSolver(m, cfg)
		testcases.SetupTC6(s)
		s.Run(30)
		// Vorticity "roughness": l2 of the field.
		sum := 0.0
		for v := 0; v < m.NVertices; v++ {
			sum += s.Diag.Vorticity[v] * s.Diag.Vorticity[v] * m.AreaTriangle[v]
		}
		return sum
	}
	if rough, smooth := run(0), run(1e5); smooth >= rough {
		t.Errorf("viscosity did not smooth vorticity: %v vs %v", smooth, rough)
	}
}

// A checkpoint cut short at any byte must fail to load and leave the
// solver bit-identical: state, topography and clock.
func TestCheckpointTruncatedLeavesSolverUntouched(t *testing.T) {
	m := testMesh(t, 1)
	cfg := sw.DefaultConfig(m)
	src, _ := sw.NewSolver(m, cfg)
	testcases.SetupTC5(src)
	src.Run(2)
	var buf bytes.Buffer
	if err := src.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	live, _ := sw.NewSolver(m, cfg)
	testcases.SetupTC2(live)
	live.Run(1)
	h := append([]float64(nil), live.State.H...)
	u := append([]float64(nil), live.State.U...)
	b := append([]float64(nil), live.B...)
	steps, tm := live.StepCount, live.Time
	same := func(x, y []float64) bool {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	for n := 0; n < len(full); n++ {
		if err := live.ReadCheckpoint(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("checkpoint truncated to %d of %d bytes loaded", n, len(full))
		}
		if !same(live.State.H, h) || !same(live.State.U, u) || !same(live.B, b) ||
			live.StepCount != steps || math.Float64bits(live.Time) != math.Float64bits(tm) {
			t.Fatalf("checkpoint truncated to %d of %d bytes modified the solver", n, len(full))
		}
	}
	if err := live.ReadCheckpoint(bytes.NewReader(full)); err != nil {
		t.Fatalf("full checkpoint: %v", err)
	}
	if !same(live.State.H, src.State.H) || live.StepCount != src.StepCount {
		t.Fatal("full checkpoint did not restore the source state")
	}
}
