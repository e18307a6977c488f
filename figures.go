package mpas

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/hybrid"
	"repro/internal/mesh"
	"repro/internal/mpisim"
	"repro/internal/partition"
	"repro/internal/pattern"
	"repro/internal/perfmodel"
	"repro/internal/results"
	"repro/internal/sw"
	"repro/internal/testcases"
)

// This file is the experiment harness: one entry point per table and figure
// of the paper's evaluation section, each returning a results.Table that
// prints the same rows/series the paper reports.

func meshCounts(m *mesh.Mesh) perfmodel.MeshCounts {
	return perfmodel.MeshCounts{Cells: m.NCells, Edges: m.NEdges, Vertices: m.NVertices}
}

// PaperMeshCells are the Table III mesh sizes (120, 60, 30, 15 km).
var PaperMeshCells = []int{40962, 163842, 655362, 2621442}

// Table1 renders the pattern-instance inventory (paper Table I).
func Table1() *results.Table {
	t := results.NewTable("Table I: pattern instances of the shallow-water model",
		"Kernel", "Pattern", "Shape", "Output", "Reads", "Writes")
	for _, k := range pattern.Kernels() {
		for _, ins := range pattern.KernelInstances(k) {
			t.AddRow(ins.Kernel, ins.ID, ins.Shape.String(), ins.Out.String(),
				join(ins.Reads), join(ins.Writes))
		}
	}
	return t
}

func join(s []string) string {
	out := ""
	for i, v := range s {
		if i > 0 {
			out += ","
		}
		out += v
	}
	return out
}

// Table2 renders the simulated platform configuration (paper Table II).
func Table2() *results.Table {
	t := results.NewTable("Table II: simulated platform configuration",
		"Device", "Cores", "Threads/core", "Freq(GHz)", "EffSerialBW(GB/s)", "EffParallelBW(GB/s)")
	for _, d := range []perfmodel.Device{perfmodel.XeonE5_2680v2(), perfmodel.XeonPhi5110P()} {
		t.AddRow(d.Name, d.Cores, d.ThreadsPerCore, d.FreqGHz, d.SerialBW, d.ParallelBW)
	}
	return t
}

// Table3 renders the mesh inventory (paper Table III), building meshes up to
// maxLevel for real statistics and using closed-form counts beyond.
func Table3(maxBuildLevel int) *results.Table {
	t := results.NewTable("Table III: quasi-uniform SCVT meshes",
		"Level", "Resolution(km)", "Cells", "Edges", "Vertices", "Built")
	for level := 6; level <= 9; level++ {
		cells := 10*(1<<(2*uint(level))) + 2
		resKm := map[int]int{6: 120, 7: 60, 8: 30, 9: 15}[level]
		if level <= maxBuildLevel {
			m := mesh.MustBuild(level, mesh.Options{})
			st := m.ComputeStats()
			t.AddRow(level, fmt.Sprintf("%d (measured %.0f)", resKm, st.ResolutionKm),
				m.NCells, m.NEdges, m.NVertices, "yes")
		} else {
			t.AddRow(level, resKm, cells, 3*cells-6, 2*cells-4, "counts only")
		}
	}
	return t
}

// Figure5Result carries the correctness-validation outcome.
type Figure5Result struct {
	Days         float64
	Norms        testcases.Norms // hybrid vs serial total height
	MaxAbsDiff   float64         // meters
	FieldScale   float64         // meters
	SerialHeight []float64
	HybridHeight []float64
	LatCell      []float64
	LonCell      []float64
}

// Figure5 runs Williamson TC5 for the given days at the given mesh level
// with both the serial code and the pattern-driven hybrid executor, and
// compares the total height fields — the paper's Figure 5 (which uses the
// 120-km mesh, level 6, at day 15).
func Figure5(level int, days float64) (*Figure5Result, error) {
	m, err := mesh.Build(level, mesh.Options{LloydIterations: 2})
	if err != nil {
		return nil, err
	}
	serial, err := New(Options{Mesh: m, TestCase: TC5, Mode: Serial})
	if err != nil {
		return nil, err
	}
	defer serial.Close()
	hyb, err := New(Options{Mesh: m, TestCase: TC5, Mode: PatternDriven, AdjustableFraction: 0.3})
	if err != nil {
		return nil, err
	}
	defer hyb.Close()
	serial.RunDays(days)
	hyb.RunDays(days)
	sh := serial.TotalHeight()
	hh := hyb.TotalHeight()
	diff, scale := testcases.MaxAbsDiff(sh, hh)
	return &Figure5Result{
		Days:         days,
		Norms:        testcases.HeightNorms(m, hh, sh),
		MaxAbsDiff:   diff,
		FieldScale:   scale,
		SerialHeight: sh,
		HybridHeight: hh,
		LatCell:      m.LatCell,
		LonCell:      m.LonCell,
	}, nil
}

// Figure6 renders the single-device optimization ladder (paper Figure 6,
// 30-km mesh).
func Figure6(cells int) *results.Table {
	t := results.NewTable(
		fmt.Sprintf("Figure 6: Xeon Phi optimization ladder (%d cells)", cells),
		"Optimization", "Speedup vs serial baseline")
	labels, sp := hybrid.DeviceLadder(cells)
	for i := range labels {
		t.AddRow(labels[i], sp[i])
	}
	return t
}

// Figure7 renders the implementation comparison (paper Figure 7).
func Figure7() *results.Table {
	t := results.NewTable("Figure 7: execution time per step and speedup vs single-core CPU",
		"Cells", "CPU(s)", "KernelLevel(s)", "PatternDriven(s)",
		"KernelSpeedup", "PatternSpeedup", "TunedHostFrac")
	for _, r := range hybrid.Figure7(PaperMeshCells) {
		t.AddRow(r.Cells, r.CPUSerial, r.KernelLevel, r.PatternDriven,
			r.KernelSpeedup, r.PatternSpeedup, r.TunedFraction)
	}
	return t
}

// Figure8 renders a strong-scaling curve (paper Figure 8; 655362 cells for
// the 30-km mesh of Fig 8a, 2621442 for the 15-km mesh of Fig 8b).
func Figure8(totalCells int) *results.Table {
	t := results.NewTable(
		fmt.Sprintf("Figure 8: strong scaling, %d cells", totalCells),
		"Procs", "CPU(s/step)", "Hybrid(s/step)", "CPUEff", "HybridEff")
	pts := mpisim.StrongScaling(totalCells, []int{1, 2, 4, 8, 16, 32, 64})
	cpuEff := mpisim.ParallelEfficiency(pts, func(p mpisim.ScalingPoint) float64 { return p.CPUTime })
	hybEff := mpisim.ParallelEfficiency(pts, func(p mpisim.ScalingPoint) float64 { return p.HybridTime })
	for i, pt := range pts {
		t.AddRow(pt.Procs, pt.CPUTime, pt.HybridTime, cpuEff[i], hybEff[i])
	}
	return t
}

// Figure9 renders the weak-scaling curve (paper Figure 9, 40962 cells per
// process).
func Figure9() *results.Table {
	t := results.NewTable("Figure 9: weak scaling, 40962 cells/process",
		"Procs", "CPU(s/step)", "Hybrid(s/step)")
	for _, pt := range mpisim.WeakScaling(40962, []int{1, 4, 16, 64}) {
		t.AddRow(pt.Procs, pt.CPUTime, pt.HybridTime)
	}
	return t
}

// MeasuredStep times one real RK-4 step (averaged over n steps) of the given
// model with Go wall clock — the "real measured" companion of the modeled
// figures.
func MeasuredStep(m *Model, n int) time.Duration {
	if n < 1 {
		n = 1
	}
	start := time.Now()
	m.Run(n)
	return time.Since(start) / time.Duration(n)
}

// DistributedRun executes a real multi-rank run (goroutine ranks of
// dist.RunLocal, halo exchanges over loopback TCP) and returns the wall time
// per step of the slowest rank. Only the stepping window, between two
// barriers, is timed: partition, extraction and rendezvous are not.
func DistributedRun(m *mesh.Mesh, ranks, steps int, tc TestCase) (time.Duration, error) {
	setup := map[TestCase]func(*sw.Solver){TC2: testcases.SetupTC2, TC5: testcases.SetupTC5, TC6: testcases.SetupTC6}[tc]
	if setup == nil {
		return 0, fmt.Errorf("mpas: unknown test case %d", tc)
	}
	if steps < 1 {
		return 0, fmt.Errorf("mpas: distributed run needs at least one step, got %d", steps)
	}
	part, err := partition.Bisect(m, ranks)
	if err != nil {
		return 0, err
	}
	cfg := sw.DefaultConfig(m)
	var slowest float64 // seconds; written by rank 0 only
	err = dist.RunLocal(ranks, part.Owner, func(b *dist.Bootstrap) error {
		rs, err := dist.NewRankSolver(b, m, cfg, setup, nil, dist.RankOptions{})
		if err != nil {
			return err
		}
		if err := b.Comm.Barrier(); err != nil {
			return err
		}
		start := time.Now()
		if err := rs.Run(steps); err != nil {
			return err
		}
		if err := b.Comm.Barrier(); err != nil {
			return err
		}
		rankMax, err := b.Comm.AllreduceMax(time.Since(start).Seconds())
		if b.Comm.Rank == 0 {
			slowest = rankMax
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	return time.Duration(slowest * float64(time.Second) / float64(steps)), nil
}
