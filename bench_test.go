package mpas

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation section plus the §4 ablations. Modeled platform quantities
// (speedups, seconds/step on the simulated CPU+Phi node) are attached to
// each benchmark via ReportMetric, so `go test -bench=. -benchmem` prints
// both the real Go wall-clock of the executed configuration and the
// simulated-platform series the paper reports. EXPERIMENTS.md records the
// paper-vs-reproduced comparison.

import (
	"fmt"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/mesh"
	"repro/internal/mpisim"
	"repro/internal/perfmodel"
)

var benchMeshes = map[int]*mesh.Mesh{}

func benchMesh(b testing.TB, level int) *mesh.Mesh {
	if m, ok := benchMeshes[level]; ok {
		return m
	}
	m, err := mesh.Build(level, mesh.Options{LloydIterations: 1})
	if err != nil {
		b.Fatal(err)
	}
	benchMeshes[level] = m
	return m
}

// TestPlanStepZeroAllocBigMesh is the allocation regression gate at the
// first Table-III size (level 7, 163842 cells): a compiled-plan step —
// float64 or float32, barrier schedule or task graph — must run without a
// single heap allocation — at 2.6M cells even one small alloc per kernel
// launch becomes GC pressure that breaks the Figure-6 scaling story. Build
// is Lloyd-free: relaxation changes geometry, not the allocation behavior
// under test.
func TestPlanStepZeroAllocBigMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("level-7 mesh build is slow; skipped under -short")
	}
	if raceDetectorEnabled {
		// Under -race the unchecked kernel views fall back to checked
		// slices, so this build doesn't exercise the code path being
		// gated, and the level-7 build pushes the package past go test's
		// default timeout. The alloc property is asserted in the normal
		// build (scripts/ci.sh runs this test without -race).
		t.Skip("alloc gate runs in the non-race build only")
	}
	msh, err := mesh.Build(7, mesh.Options{LloydIterations: 0})
	if err != nil {
		t.Fatal(err)
	}
	if msh.NCells != 163842 {
		t.Fatalf("level 7 has %d cells, want 163842", msh.NCells)
	}
	for _, tc := range []struct {
		name      string
		mode      Mode
		precision string
	}{
		{"plan", Plan, ""},
		{"taskplan", TaskPlan, ""},
		{"fast32", Plan, "float32"},
		{"fast32-taskplan", TaskPlan, "float32"},
	} {
		m, err := New(Options{Mesh: msh, TestCase: TC5, Mode: tc.mode, Precision: tc.precision})
		if err != nil {
			t.Fatal(err)
		}
		m.Step() // compile/warm outside the measured window
		if a := testing.AllocsPerRun(2, m.Step); a != 0 {
			t.Errorf("%s: %v allocs per step at 163842 cells, want 0", tc.name, a)
		}
		m.Close()
	}
}

// BenchmarkTable3MeshBuild regenerates Table III construction: SCVT mesh
// building per level (real work).
func BenchmarkTable3MeshBuild(b *testing.B) {
	for _, level := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("level%d", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mesh.Build(level, mesh.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5Validation runs the Figure 5 correctness configuration (TC5,
// serial vs pattern-driven hybrid) and reports the relative difference.
func BenchmarkFig5Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Figure5(3, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxAbsDiff/res.FieldScale, "relDiff")
	}
}

// BenchmarkFig6OptimizationLadder reports the modeled Figure 6 speedups and
// times the model evaluation itself.
func BenchmarkFig6OptimizationLadder(b *testing.B) {
	var labels []string
	var sp []float64
	for i := 0; i < b.N; i++ {
		labels, sp = hybrid.DeviceLadder(655362)
	}
	for i := range labels {
		b.ReportMetric(sp[i], labels[i]+"_x")
	}
}

// BenchmarkFig7Implementations reports the modeled Figure 7 speedups per
// paper mesh size.
func BenchmarkFig7Implementations(b *testing.B) {
	for _, cells := range PaperMeshCells {
		b.Run(fmt.Sprintf("cells%d", cells), func(b *testing.B) {
			var rows []hybrid.Figure7Row
			for i := 0; i < b.N; i++ {
				rows = hybrid.Figure7([]int{cells})
			}
			r := rows[0]
			b.ReportMetric(r.KernelSpeedup, "kernel_x")
			b.ReportMetric(r.PatternSpeedup, "pattern_x")
			b.ReportMetric(r.CPUSerial, "cpu_s/step")
			b.ReportMetric(r.PatternDriven, "hybrid_s/step")
		})
	}
}

// BenchmarkFig7RealExecution times REAL steps of each implementation on an
// actually-built mesh (level 5, 10242 cells), complementing the modeled
// figure with measured Go wall-clock.
func BenchmarkFig7RealExecution(b *testing.B) {
	msh := benchMesh(b, 5)
	for _, mode := range []Mode{Serial, Threaded, KernelLevel, PatternDriven} {
		b.Run(mode.String(), func(b *testing.B) {
			m, err := New(Options{Mesh: msh, TestCase: TC5, Mode: mode, AdjustableFraction: 0.3})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step()
			}
		})
	}
}

// BenchmarkFig8StrongScaling reports the modeled strong-scaling series for
// both paper meshes.
func BenchmarkFig8StrongScaling(b *testing.B) {
	for _, cells := range []int{655362, 2621442} {
		b.Run(fmt.Sprintf("cells%d", cells), func(b *testing.B) {
			var pts []mpisim.ScalingPoint
			for i := 0; i < b.N; i++ {
				pts = mpisim.StrongScaling(cells, []int{1, 64})
			}
			b.ReportMetric(pts[0].HybridTime, "hybrid_P1_s")
			b.ReportMetric(pts[1].HybridTime, "hybrid_P64_s")
			b.ReportMetric(pts[0].CPUTime, "cpu_P1_s")
			b.ReportMetric(pts[1].CPUTime, "cpu_P64_s")
		})
	}
}

// BenchmarkFig8RealDistributed times a real multi-rank strong-scaling run
// (in-process dist ranks, halo exchanges over loopback TCP) on a built mesh.
func BenchmarkFig8RealDistributed(b *testing.B) {
	msh := benchMesh(b, 5)
	for _, ranks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := DistributedRun(msh, ranks, 1, TC5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9WeakScaling reports the modeled weak-scaling series.
func BenchmarkFig9WeakScaling(b *testing.B) {
	var pts []mpisim.ScalingPoint
	for i := 0; i < b.N; i++ {
		pts = mpisim.WeakScaling(40962, []int{1, 4, 16, 64})
	}
	for _, pt := range pts {
		b.ReportMetric(pt.HybridTime, fmt.Sprintf("hybrid_P%d_s", pt.Procs))
	}
	b.ReportMetric(pts[0].CPUTime, "cpu_P1_s")
	b.ReportMetric(pts[len(pts)-1].CPUTime, "cpu_P64_s")
}

// BenchmarkAblationTransferResidency isolates §4.A: resident device data vs
// per-kernel transfers, on the modeled platform.
func BenchmarkAblationTransferResidency(b *testing.B) {
	mc := perfmodel.CountsForCells(655362)
	resident := hybrid.PatternDrivenSchedule(0.3)
	shipping := *resident
	shipping.ResidentData = false
	var tRes, tShip float64
	for i := 0; i < b.N; i++ {
		tRes = hybrid.SimulateStep(resident, mc, false).Time
		tShip = hybrid.SimulateStep(&shipping, mc, false).Time
	}
	b.ReportMetric(tShip/tRes, "residency_gain_x")
}

// BenchmarkAblationOverlap isolates the pattern-driven design's transfer
// overlap.
func BenchmarkAblationOverlap(b *testing.B) {
	mc := perfmodel.CountsForCells(655362)
	over := hybrid.PatternDrivenSchedule(0.3)
	seq := *over
	seq.OverlapTransfers = false
	var tOver, tSeq float64
	for i := 0; i < b.N; i++ {
		tOver = hybrid.SimulateStep(over, mc, false).Time
		tSeq = hybrid.SimulateStep(&seq, mc, false).Time
	}
	b.ReportMetric(tSeq/tOver, "overlap_gain_x")
}

// BenchmarkRealStepByLevel is the raw solver throughput on real meshes.
func BenchmarkRealStepByLevel(b *testing.B) {
	for _, level := range []int{3, 4, 5} {
		msh := benchMesh(b, level)
		b.Run(fmt.Sprintf("cells%d", msh.NCells), func(b *testing.B) {
			m, err := New(Options{Mesh: msh, TestCase: TC5})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Step()
			}
			cellsPerSec := float64(msh.NCells) * float64(b.N)
			b.ReportMetric(cellsPerSec/b.Elapsed().Seconds(), "cells/s")
		})
	}
}
