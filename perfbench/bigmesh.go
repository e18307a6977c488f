package main

import (
	"time"

	"repro/internal/mesh"
)

// bigmeshLevel is the largest ladder rung that fits this benchmark's memory
// budget: 655362 cells, one of the paper's meshes.
const bigmeshLevel = 8

// runBigmesh is the out-of-cache workload: one TC5 model on the level-8
// mesh stepped from the same seeded initial state in each of the five step
// modes, one model at a time.
func runBigmesh(r *run) error {
	t0 := time.Now()
	sp := r.span("mesh.Build")
	// No Lloyd sweeps: as in the Table-III ladder, relaxation cost grows
	// superlinearly and does not change the step being measured.
	m, err := mesh.Build(bigmeshLevel, mesh.Options{})
	sp.End()
	if err != nil {
		return err
	}
	build := time.Since(t0)
	r.set("mesh.build_s", build.Seconds())

	var modes map[string]*modeRun
	if r.traced {
		if err := profileInProcess(r, m, r.budget(0.6)); err != nil {
			return err
		}
		// The layers this workload does not cross are measured by the
		// fixed small probes of the other two workloads.
		if err := probeDist(r); err != nil {
			return err
		}
		return probeEnsemble(r)
	}
	if modes, err = stepModes(r, m, r.budget(1)); err != nil {
		return err
	}
	reportModes(r, m, modes)
	setup := build
	var meds []float64
	parallel := 0.0
	for _, mode := range modeNames {
		mr := modes[mode]
		setup += mr.setup
		meds = append(meds, median(mr.steps))
		if mode != "serial" {
			parallel += median(mr.steps)
		}
		r.note("%s: %d timed steps, median %.4f s", mode, len(mr.steps), median(mr.steps))
	}
	r.set("setup_s", setup.Seconds())
	r.set("step_s", geomean(meds))
	// Steps per second when the four parallel modes take one step each in
	// turn: built from the medians, so it does not depend on how many steps
	// each mode fitted into its share of the budget. The single-threaded
	// baseline is left out; it enters step_s.
	r.set("throughput_per_s", float64(len(meds)-1)/parallel)
	r.note("working set: level %d, %d cells, %d edges; last-level cache %.1f MB",
		bigmeshLevel, m.NCells, m.NEdges, float64(llcBytes())/(1<<20))
	return nil
}
