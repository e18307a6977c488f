package mpisim

import "testing"

func TestStrongScalingModelShape(t *testing.T) {
	// Figure 8: near-ideal CPU scaling; hybrid faster everywhere but with
	// degrading efficiency on the small mesh at high process counts.
	procs := []int{1, 2, 4, 8, 16, 32, 64}
	small := StrongScaling(655362, procs)
	for i, pt := range small {
		if pt.HybridTime >= pt.CPUTime {
			t.Errorf("P=%d: hybrid %v not faster than CPU %v", pt.Procs, pt.HybridTime, pt.CPUTime)
		}
		if i > 0 {
			if pt.CPUTime >= small[i-1].CPUTime {
				t.Errorf("CPU time not decreasing at P=%d", pt.Procs)
			}
		}
	}
	cpuEff := ParallelEfficiency(small, func(p ScalingPoint) float64 { return p.CPUTime })
	hybEff := ParallelEfficiency(small, func(p ScalingPoint) float64 { return p.HybridTime })
	if cpuEff[len(cpuEff)-1] < 0.8 {
		t.Errorf("CPU efficiency at 64 procs %v, paper shows near-ideal", cpuEff[len(cpuEff)-1])
	}
	// The paper: "parallel efficiency degrades severely when scaling to
	// larger numbers of MPI processes" for the hybrid on the 30-km mesh.
	if hybEff[len(hybEff)-1] > 0.75 {
		t.Errorf("hybrid efficiency at 64 procs %v; paper shows degradation on 30-km mesh", hybEff[len(hybEff)-1])
	}
	// On the large mesh the hybrid keeps much better efficiency (Fig 8b).
	large := StrongScaling(2621442, procs)
	hybEffLarge := ParallelEfficiency(large, func(p ScalingPoint) float64 { return p.HybridTime })
	if hybEffLarge[len(hybEffLarge)-1] <= hybEff[len(hybEff)-1] {
		t.Error("hybrid efficiency not better on the larger mesh")
	}
}

func TestWeakScalingModelFlat(t *testing.T) {
	// Figure 9: both codes nearly flat at 40962 cells/process.
	procs := []int{1, 4, 16, 64}
	pts := WeakScaling(40962, procs)
	cpu1, hyb1 := pts[0].CPUTime, pts[0].HybridTime
	for _, pt := range pts[1:] {
		if pt.CPUTime > cpu1*1.15 {
			t.Errorf("CPU weak scaling not flat: %v vs %v", pt.CPUTime, cpu1)
		}
		if pt.HybridTime > hyb1*1.35 {
			t.Errorf("hybrid weak scaling not flat: %v vs %v", pt.HybridTime, hyb1)
		}
		if pt.HybridTime >= pt.CPUTime {
			t.Error("hybrid slower than CPU in weak scaling")
		}
	}
	// Paper anchors: CPU ~0.27 s, hybrid ~0.045-0.05 s per step.
	if cpu1 < 0.2 || cpu1 > 0.36 {
		t.Errorf("weak-scaling CPU anchor %v, paper 0.271", cpu1)
	}
	if hyb1 < 0.03 || hyb1 > 0.08 {
		t.Errorf("weak-scaling hybrid anchor %v, paper 0.045", hyb1)
	}
}
