// Command scaling reproduces Figures 8 and 9: strong and weak scaling of
// the original code and the pattern-driven hybrid from 1 to 64 MPI
// processes, on the modeled platform (FDR InfiniBand + PCIe staging). With
// -real it additionally runs real in-process ranks (dist.RunLocal, halo
// exchanges over loopback TCP) on a built mesh and reports the measured wall
// time per step of the stepping window.
//
// Usage:
//
//	scaling -strong 655362      # Figure 8(a), 30-km mesh
//	scaling -strong 2621442     # Figure 8(b), 15-km mesh
//	scaling -weak               # Figure 9
//	scaling -real -level 5 -ranks 8
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	mpas "repro"
	"repro/internal/mesh"
	"repro/internal/results"
)

func main() {
	strong := flag.Int("strong", 0, "total cells for a strong-scaling curve (Figure 8)")
	weak := flag.Bool("weak", false, "weak scaling at 40962 cells/process (Figure 9)")
	real := flag.Bool("real", false, "run real distributed ranks on a built mesh")
	level := flag.Int("level", 5, "mesh level for -real")
	maxRanks := flag.Int("ranks", 8, "max rank count for -real (powers of 2)")
	steps := flag.Int("steps", 2, "steps per real run")
	flag.Parse()

	ran := false
	if *strong > 0 {
		mpas.Figure8(*strong).WriteText(os.Stdout)
		ran = true
	}
	if *weak {
		mpas.Figure9().WriteText(os.Stdout)
		ran = true
	}
	if *real {
		msh, err := mesh.Build(*level, mesh.Options{LloydIterations: 1})
		if err != nil {
			log.Fatal(err)
		}
		t := results.NewTable(
			fmt.Sprintf("Real distributed runs (%d cells, %d steps, in-process ranks over loopback TCP)", msh.NCells, *steps),
			"Ranks", "ms/step (wall)")
		for r := 1; r <= *maxRanks; r *= 2 {
			wall, err := mpas.DistributedRun(msh, r, *steps, mpas.TC5)
			if err != nil {
				log.Fatal(err)
			}
			t.AddRow(r, float64(wall.Microseconds())/1000)
		}
		t.WriteText(os.Stdout)
		ran = true
	}
	if !ran {
		// Default: both paper strong-scaling curves plus weak scaling.
		mpas.Figure8(655362).WriteText(os.Stdout)
		fmt.Println()
		mpas.Figure8(2621442).WriteText(os.Stdout)
		fmt.Println()
		mpas.Figure9().WriteText(os.Stdout)
	}
}
