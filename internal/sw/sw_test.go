package sw_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/pattern"
	"repro/internal/sw"
	"repro/internal/testcases"
)

var meshCache = map[int]*mesh.Mesh{}

func testMesh(t testing.TB, level int) *mesh.Mesh {
	if m, ok := meshCache[level]; ok {
		return m
	}
	m, err := mesh.Build(level, mesh.Options{LloydIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	meshCache[level] = m
	return m
}

func newTC2Solver(t testing.TB, level int) *sw.Solver {
	m := testMesh(t, level)
	s, err := sw.NewSolver(m, sw.DefaultConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	testcases.SetupTC2(s)
	return s
}

func relDiff(a, b []float64) float64 {
	maxd, scale := 0.0, 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > maxd {
			maxd = d
		}
		if v := math.Abs(a[i]); v > scale {
			scale = v
		}
	}
	if scale == 0 {
		return maxd
	}
	return maxd / scale
}

func TestConfigValidate(t *testing.T) {
	m := testMesh(t, 2)
	good := sw.DefaultConfig(m)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Dt = 0
	if _, err := sw.NewSolver(m, bad); err == nil {
		t.Error("zero dt accepted")
	}
	bad = good
	bad.Gravity = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative gravity accepted")
	}
	bad = good
	bad.APVM = 2
	if err := bad.Validate(); err == nil {
		t.Error("APVM=2 accepted")
	}
}

func TestStableDtScalesWithResolution(t *testing.T) {
	d3 := sw.StableDt(testMesh(t, 3))
	d4 := sw.StableDt(testMesh(t, 4))
	if d3 <= 0 || d4 <= 0 {
		t.Fatal("non-positive dt")
	}
	if r := d3 / d4; r < 1.8 || r > 2.2 {
		t.Errorf("dt ratio between levels = %v, want ~2", r)
	}
}

func TestKernelStructureMatchesTable1(t *testing.T) {
	s := newTC2Solver(t, 2)
	ks := s.Kernels()
	if len(ks) != 6 {
		t.Fatalf("%d kernels, want 6", len(ks))
	}
	for _, k := range ks {
		want := 0
		for _, ins := range pattern.KernelInstances(k.Name) {
			if !ins.Optional {
				want++
			}
		}
		if len(k.Patterns) != want {
			t.Errorf("kernel %s has %d patterns, want %d (default config)", k.Name, len(k.Patterns), want)
		}
		for _, p := range k.Patterns {
			if p.Info.Kernel != k.Name {
				t.Errorf("pattern %s in wrong kernel %s", p.Info.ID, k.Name)
			}
			if p.N <= 0 || p.Run == nil {
				t.Errorf("pattern %s not executable", p.Info.ID)
			}
		}
	}
	if s.PatternByID("B1") == nil || s.PatternByID("X6") == nil {
		t.Error("PatternByID lookup failed")
	}
	if s.PatternByID("C1") != nil {
		t.Error("optional C1 present under default config")
	}
}

func TestHighOrderConfigIncludesC1D2(t *testing.T) {
	m := testMesh(t, 2)
	cfg := sw.DefaultConfig(m)
	cfg.HighOrderThickness = true
	s, err := sw.NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.PatternByID("C1") == nil || s.PatternByID("D2") == nil {
		t.Fatal("high-order patterns missing")
	}
	if s.PatternByID("D1") != nil {
		t.Error("D1 should be replaced by D2 in high-order mode")
	}
}

func TestTC2RemainsSteady(t *testing.T) {
	s := newTC2Solver(t, 4)
	h0 := append([]float64(nil), s.State.H...)
	steps := int(testcases.Day / s.Cfg.Dt / 2) // half a day
	s.Run(steps)
	norms := testcases.HeightNorms(s.M, s.State.H, h0)
	if norms.L2 > 2e-3 {
		t.Errorf("TC2 l2 height error %v after half a day", norms.L2)
	}
	if norms.LInf > 5e-3 {
		t.Errorf("TC2 linf height error %v", norms.LInf)
	}
}

func TestMassConservedToRoundoff(t *testing.T) {
	m := testMesh(t, 3)
	s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
	testcases.SetupTC5(s)
	m0 := s.ComputeInvariants().Mass
	s.Run(20)
	m1 := s.ComputeInvariants().Mass
	if rel := math.Abs(m1-m0) / m0; rel > 1e-13 {
		t.Errorf("mass drift %v", rel)
	}
}

func TestEnergyEnstrophyDriftSmall(t *testing.T) {
	s := newTC2Solver(t, 3)
	i0 := s.ComputeInvariants()
	s.Run(50)
	i1 := s.ComputeInvariants()
	if rel := math.Abs(i1.TotalEnergy-i0.TotalEnergy) / i0.TotalEnergy; rel > 1e-7 {
		t.Errorf("energy drift %v", rel)
	}
	if rel := math.Abs(i1.PotentialEnstrophy-i0.PotentialEnstrophy) / i0.PotentialEnstrophy; rel > 1e-4 {
		t.Errorf("enstrophy drift %v", rel)
	}
}

func TestGatherMatchesScatterReference(t *testing.T) {
	// The paper's correctness claim: refactored (gather) kernels agree with
	// the original (scatter) loops within machine precision.
	s := newTC2Solver(t, 3)
	s.Run(3) // some evolution so fields are nontrivial

	refD := sw.NewDiagnostics(s.M)
	s.ReferenceDiagnostics(s.State, refD)
	d := s.Diag
	checks := []struct {
		name     string
		got, ref []float64
	}{
		{"h_edge", d.HEdge, refD.HEdge},
		{"vorticity", d.Vorticity, refD.Vorticity},
		{"divergence", d.Divergence, refD.Divergence},
		{"ke", d.KE, refD.KE},
		{"v", d.V, refD.V},
		{"h_vertex", d.HVertex, refD.HVertex},
		{"pv_vertex", d.PVVertex, refD.PVVertex},
		{"pv_cell", d.PVCell, refD.PVCell},
		{"vorticity_cell", d.VorticityCell, refD.VorticityCell},
		{"pv_edge", d.PVEdge, refD.PVEdge},
	}
	for _, c := range checks {
		if r := relDiff(c.got, c.ref); r > 1e-11 {
			t.Errorf("%s: gather vs scatter rel diff %v", c.name, r)
		}
	}

	refT := sw.NewTendencies(s.M)
	s.ReferenceTend(s.State, refD, refT)
	td := sw.NewTendencies(s.M)
	// Recompute tendencies for current state through the pattern kernels.
	s.Tend.H, td.H = td.H, s.Tend.H
	s.Tend.U, td.U = td.U, s.Tend.U
	s.KernelByName(pattern.KernelComputeTend).Patterns[0].Run(0, s.M.NCells)
	s.KernelByName(pattern.KernelComputeTend).Patterns[1].Run(0, s.M.NEdges)
	if r := relDiff(s.Tend.H, refT.H); r > 1e-11 {
		t.Errorf("tend_h: gather vs scatter rel diff %v", r)
	}
	if r := relDiff(s.Tend.U, refT.U); r > 1e-11 {
		t.Errorf("tend_u: gather vs scatter rel diff %v", r)
	}
}

func TestPoolRunnerBitwiseEqualsSerial(t *testing.T) {
	// Parallel chunking does not change the per-element arithmetic, so the
	// threaded run must be bitwise identical to the serial one.
	m := testMesh(t, 3)
	mkRun := func(r sw.Runner) *sw.Solver {
		s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
		s.Runner = r
		testcases.SetupTC5(s)
		s.Run(5)
		return s
	}
	serial := mkRun(sw.SerialRunner{})
	pool := par.NewPool(4)
	defer pool.Close()
	threaded := mkRun(sw.PoolRunner{Pool: pool})
	perLoop := mkRun(sw.PerLoopRunner{Pool: pool})
	for c := range serial.State.H {
		if serial.State.H[c] != threaded.State.H[c] {
			t.Fatalf("PoolRunner H differs at cell %d", c)
		}
		if serial.State.H[c] != perLoop.State.H[c] {
			t.Fatalf("PerLoopRunner H differs at cell %d", c)
		}
	}
	for e := range serial.State.U {
		if serial.State.U[e] != threaded.State.U[e] {
			t.Fatalf("PoolRunner U differs at edge %d", e)
		}
	}
}

func TestTC5StableOneDay(t *testing.T) {
	m := testMesh(t, 3)
	s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
	testcases.SetupTC5(s)
	steps := int(testcases.Day / s.Cfg.Dt)
	s.Run(steps)
	inv := s.ComputeInvariants()
	if math.IsNaN(inv.TotalEnergy) || inv.MaxSpeed > 150 || inv.MinH < 0 {
		t.Errorf("TC5 unstable: %+v", inv)
	}
	// The mountain forces the flow: the state must have evolved.
	if inv.MaxSpeed < 20 {
		t.Errorf("TC5 suspiciously quiet: max speed %v", inv.MaxSpeed)
	}
}

func TestTC6StableAndWaveMoves(t *testing.T) {
	m := testMesh(t, 3)
	s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
	testcases.SetupTC6(s)
	h0 := append([]float64(nil), s.State.H...)
	s.Run(40)
	inv := s.ComputeInvariants()
	if math.IsNaN(inv.TotalEnergy) || inv.MinH <= 0 {
		t.Fatalf("TC6 unstable: %+v", inv)
	}
	// The Rossby-Haurwitz wave translates, so h changes.
	if relDiff(s.State.H, h0) < 1e-6 {
		t.Error("TC6 did not evolve")
	}
}

func TestHighOrderThicknessStableAndConservative(t *testing.T) {
	m := testMesh(t, 3)
	cfg := sw.DefaultConfig(m)
	cfg.HighOrderThickness = true
	s, _ := sw.NewSolver(m, cfg)
	testcases.SetupTC2(s)
	h0 := append([]float64(nil), s.State.H...)
	m0 := s.ComputeInvariants().Mass
	s.Run(30)
	if rel := math.Abs(s.ComputeInvariants().Mass-m0) / m0; rel > 1e-13 {
		t.Errorf("high-order mass drift %v", rel)
	}
	norms := testcases.HeightNorms(s.M, s.State.H, h0)
	if norms.L2 > 5e-3 {
		t.Errorf("high-order TC2 error %v", norms.L2)
	}
}

func TestRayleighFrictionDampsEnergy(t *testing.T) {
	m := testMesh(t, 3)
	cfg := sw.DefaultConfig(m)
	cfg.RayleighFriction = 1e-4
	s, _ := sw.NewSolver(m, cfg)
	testcases.SetupTC6(s)
	e0 := s.ComputeInvariants().TotalEnergy
	s.Run(30)
	e1 := s.ComputeInvariants().TotalEnergy
	if e1 >= e0 {
		t.Errorf("friction did not damp energy: %v -> %v", e0, e1)
	}
}

func TestAPVMChangesSolution(t *testing.T) {
	m := testMesh(t, 3)
	run := func(apvm float64) []float64 {
		cfg := sw.DefaultConfig(m)
		cfg.APVM = apvm
		s, _ := sw.NewSolver(m, cfg)
		testcases.SetupTC6(s)
		s.Run(20)
		return append([]float64(nil), s.State.H...)
	}
	with := run(0.5)
	without := run(0)
	if relDiff(with, without) == 0 {
		t.Error("APVM upwinding has no effect")
	}
}

func TestReconstructionAccuracy(t *testing.T) {
	// For TC2's solid-body flow, the reconstructed zonal wind at cells must
	// match u0*cos(lat) and the meridional wind must be ~0.
	s := newTC2Solver(t, 4)
	m := s.M
	u0 := 2 * math.Pi * m.Radius / (12 * testcases.Day)
	maxErr := 0.0
	for c := 0; c < m.NCells; c++ {
		want := u0 * math.Cos(m.LatCell[c])
		if d := math.Abs(s.Recon.Zonal[c] - want); d > maxErr {
			maxErr = d
		}
		if d := math.Abs(s.Recon.Meridional[c]); d > maxErr {
			maxErr = d
		}
	}
	if maxErr/u0 > 0.05 {
		t.Errorf("reconstruction max error %v of %v", maxErr, u0)
	}
}

func TestInvariantsFields(t *testing.T) {
	s := newTC2Solver(t, 2)
	inv := s.ComputeInvariants()
	if inv.Mass <= 0 || inv.TotalEnergy <= 0 || inv.PotentialEnstrophy <= 0 {
		t.Errorf("non-positive invariants: %+v", inv)
	}
	if inv.MinH > inv.MaxH || inv.MinH <= 0 {
		t.Errorf("bad h bounds: %+v", inv)
	}
	if inv.MaxSpeed <= 0 || inv.MaxSpeed > 100 {
		t.Errorf("bad max speed: %v", inv.MaxSpeed)
	}
}

func TestStateCloneCopy(t *testing.T) {
	m := testMesh(t, 2)
	s := sw.NewState(m)
	for i := range s.H {
		s.H[i] = float64(i)
	}
	c := s.Clone()
	c.H[0] = -1
	if s.H[0] == -1 {
		t.Error("Clone aliases storage")
	}
	s2 := sw.NewState(m)
	s2.CopyFrom(s)
	if s2.H[5] != 5 {
		t.Error("CopyFrom failed")
	}
}

func TestDeterministicSteps(t *testing.T) {
	// Two identical runs give identical trajectories.
	a := newTC2Solver(t, 3)
	b := newTC2Solver(t, 3)
	a.Run(10)
	b.Run(10)
	for i := range a.State.H {
		if a.State.H[i] != b.State.H[i] {
			t.Fatal("non-deterministic run")
		}
	}
}

func BenchmarkStepSerial(b *testing.B) {
	for _, level := range []int{3, 4, 5} {
		m := testMesh(b, level)
		s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
		testcases.SetupTC5(s)
		b.Run(map[int]string{3: "642cells", 4: "2562cells", 5: "10242cells"}[level], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

func BenchmarkStepPlan(b *testing.B) {
	for _, level := range []int{3, 4, 5} {
		m := testMesh(b, level)
		pool := par.NewPool(0)
		defer pool.Close()
		s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
		testcases.SetupTC5(s)
		s.Runner = sw.MustNewPlanRunner(s, pool)
		b.Run(map[int]string{3: "642cells", 4: "2562cells", 5: "10242cells"}[level], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

func BenchmarkStepTaskPlan(b *testing.B) {
	for _, level := range []int{3, 4, 5} {
		m := testMesh(b, level)
		pool := par.NewPool(0)
		defer pool.Close()
		s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
		testcases.SetupTC5(s)
		s.Runner = sw.MustNewTaskPlanRunner(s, pool)
		b.Run(map[int]string{3: "642cells", 4: "2562cells", 5: "10242cells"}[level], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

// BenchmarkStepPlanWorkers / BenchmarkStepTaskPlanWorkers sweep the worker
// count at the 10242-cell rung so the benchmark JSON records the parallel
// efficiency of barrier vs task-graph scheduling side by side.
func BenchmarkStepPlanWorkers(b *testing.B) {
	for _, nw := range []int{1, 2, 4, 8} {
		m := testMesh(b, 5)
		pool := par.NewPool(nw)
		defer pool.Close()
		s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
		testcases.SetupTC5(s)
		s.Runner = sw.MustNewPlanRunner(s, pool)
		b.Run(fmt.Sprintf("w%d", nw), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

func BenchmarkStepTaskPlanWorkers(b *testing.B) {
	for _, nw := range []int{1, 2, 4, 8} {
		m := testMesh(b, 5)
		pool := par.NewPool(nw)
		defer pool.Close()
		s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
		testcases.SetupTC5(s)
		s.Runner = sw.MustNewTaskPlanRunner(s, pool)
		b.Run(fmt.Sprintf("w%d", nw), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

func BenchmarkStepFast32(b *testing.B) {
	for _, level := range []int{3, 4, 5} {
		m := testMesh(b, level)
		pool := par.NewPool(0)
		defer pool.Close()
		s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
		testcases.SetupTC5(s)
		r, err := sw.NewFast32Runner(s, pool)
		if err != nil {
			b.Fatal(err)
		}
		s.Runner = r
		b.Run(map[int]string{3: "642cells", 4: "2562cells", 5: "10242cells"}[level], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}

func BenchmarkStepThreaded(b *testing.B) {
	m := testMesh(b, 5)
	pool := par.NewPool(0)
	defer pool.Close()
	s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
	s.Runner = sw.PoolRunner{Pool: pool}
	testcases.SetupTC5(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// newTestPool returns a 4-worker pool cleaned up with the test.
func newTestPool(t testing.TB) *par.Pool {
	p := par.NewPool(4)
	t.Cleanup(p.Close)
	return p
}
