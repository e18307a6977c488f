// Package mpisim is the α–β cost model of the paper's distributed runs
// (Figures 8 and 9): per-rank compute from the hybrid tuner, halo messages
// under the FDR InfiniBand model, and — for the hybrid — the PCIe staging of
// halo data. Real multi-rank runs go through internal/dist.
package mpisim

import (
	"repro/internal/dist"
	"repro/internal/hybrid"
	"repro/internal/partition"
	"repro/internal/perfmodel"
)

// ScalingPoint is one process count of a scaling curve: the modeled per-step
// time of the original (one-core-per-process) code and of the pattern-driven
// hybrid, built from per-rank workloads, the FDR InfiniBand alpha-beta model
// and — for the hybrid — the PCIe staging of halo data.
type ScalingPoint struct {
	Procs        int
	CellsPerProc int
	HaloCells    int // per rank, all layers
	CommTime     float64
	CPUTime      float64 // seconds/step, original code
	HybridTime   float64 // seconds/step, pattern-driven hybrid
}

// neighbors is the typical neighbor count of a compact partition part.
const neighbors = 6

// ExchangesPerStep is the number of halo exchanges per RK-4 step (one per
// substage, as dist.RankSolver wires them into the step).
const ExchangesPerStep = 4

// haloModel returns the modeled halo cell and edge counts of one rank.
func haloModel(cellsPerProc, procs int) (cells, edges int) {
	if procs == 1 {
		return 0, 0
	}
	for l := 1; l <= dist.HaloLayers; l++ {
		cells += partition.HaloCellsModel(cellsPerProc, l)
	}
	return cells, 3 * cells
}

// commTime models one rank's per-step communication: per exchange, one
// message per neighbor under the InfiniBand alpha-beta model.
func commTime(haloCells, haloEdges, procs int) float64 {
	if procs == 1 {
		return 0
	}
	ib := perfmodel.FDRInfiniBand()
	bytes := float64(haloCells+haloEdges) * 8
	perExchange := float64(neighbors)*ib.Latency + bytes/(ib.Bandwidth*1e9)
	return ExchangesPerStep * perExchange
}

// pciStaging models the hybrid's extra PCIe hops: halo data crosses the link
// twice per exchange (device to host before sending, host to device after
// receiving).
func pciStaging(haloCells, haloEdges, procs int) float64 {
	if procs == 1 {
		return 0
	}
	link := perfmodel.DefaultPCIe()
	bytes := float64(haloCells+haloEdges) * 8
	return ExchangesPerStep * 2 * link.TransferTime(bytes)
}

// point computes one scaling point for the given per-rank cell count.
func point(procs, cellsPerProc int) ScalingPoint {
	haloC, haloE := haloModel(cellsPerProc, procs)
	// Both codes compute over owned + halo entities.
	mc := perfmodel.CountsForCells(cellsPerProc + haloC)
	comm := commTime(haloC, haloE, procs)

	cpu := hybrid.CPUSerialStep(mc) + comm

	_, hybridCompute := hybrid.TunePatternDriven(mc)
	hyb := hybridCompute + comm + pciStaging(haloC, haloE, procs)

	return ScalingPoint{
		Procs:        procs,
		CellsPerProc: cellsPerProc,
		HaloCells:    haloC,
		CommTime:     comm,
		CPUTime:      cpu,
		HybridTime:   hyb,
	}
}

// StrongScaling models Figure 8: a fixed global mesh spread over increasing
// process counts.
func StrongScaling(totalCells int, procs []int) []ScalingPoint {
	var out []ScalingPoint
	for _, p := range procs {
		out = append(out, point(p, totalCells/p))
	}
	return out
}

// WeakScaling models Figure 9: a fixed per-process mesh size.
func WeakScaling(cellsPerProc int, procs []int) []ScalingPoint {
	var out []ScalingPoint
	for _, p := range procs {
		out = append(out, point(p, cellsPerProc))
	}
	return out
}

// ParallelEfficiency returns time(1)/(P*time(P)) for a strong-scaling curve,
// using the given accessor (CPU or hybrid).
func ParallelEfficiency(points []ScalingPoint, get func(ScalingPoint) float64) []float64 {
	if len(points) == 0 {
		return nil
	}
	base := get(points[0]) * float64(points[0].Procs)
	out := make([]float64, len(points))
	for i, pt := range points {
		out[i] = base / (get(pt) * float64(pt.Procs))
	}
	return out
}
