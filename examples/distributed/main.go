// Distributed runs the shallow-water model across several MPI-style ranks:
// the sphere is decomposed by recursive bisection, each rank owns a
// contiguous patch plus a three-layer halo, and halo exchanges fire at every
// RK substage — the communication structure of the paper's scaling
// experiments (Figures 8 and 9). The ranks are goroutines of this process
// (dist.RunLocal) talking over loopback TCP through the same runtime the
// multi-process swrank binary uses. The run verifies that the distributed
// trajectory matches a serial reference bitwise on owned cells.
package main

import (
	"fmt"
	"log"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/sw"
	"repro/internal/testcases"
)

func main() {
	const ranks = 4
	const steps = 10

	msh, err := mesh.Build(4, mesh.Options{LloydIterations: 2})
	if err != nil {
		log.Fatal(err)
	}
	cfg := sw.DefaultConfig(msh)

	// Serial reference.
	ref, err := sw.NewSolver(msh, cfg)
	if err != nil {
		log.Fatal(err)
	}
	testcases.SetupTC5(ref)
	ref.Run(steps)

	// Decompose and run. Each rank fills only its own slots, and the
	// results are printed once every rank has returned.
	part, err := partition.Bisect(msh, ranks)
	if err != nil {
		log.Fatal(err)
	}
	rows := make([]string, ranks)
	match := make([]bool, ranks)
	var mass float64
	err = dist.RunLocal(ranks, part.Owner, func(b *dist.Bootstrap) error {
		rs, err := dist.NewRankSolver(b, msh, cfg, testcases.SetupTC5, nil, dist.RankOptions{})
		if err != nil {
			return err
		}
		r, l, spec := b.Comm.Rank, rs.Local, rs.Ex.Spec
		rows[r] = fmt.Sprintf("  rank %d: %5d owned cells, %4d halo cells, halo message %5.1f KB, peers %v",
			r, l.NOwnedCells, l.M.NCells-l.NOwnedCells, float64(spec.HaloBytes())/1024, spec.Peers)
		if err := rs.Run(steps); err != nil {
			return err
		}
		gm, err := rs.GlobalMass()
		if err != nil {
			return err
		}
		if r == 0 {
			mass = gm
		}
		match[r] = true
		for lc := 0; lc < l.NOwnedCells; lc++ {
			if rs.S.State.H[lc] != ref.State.H[l.CellL2G[lc]] {
				match[r] = false
				break
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s decomposed for %d ranks:\n", msh, ranks)
	matches := 0
	for r, row := range rows {
		fmt.Println(row)
		if match[r] {
			matches++
		}
	}
	fmt.Printf("\nafter %d steps: global mass %.6e kg/m (allreduced)\n", steps, mass)
	fmt.Printf("%d/%d ranks bitwise-match the serial reference on owned cells\n", matches, ranks)
	if matches != ranks {
		log.Fatal("distributed run diverged from serial")
	}
}
