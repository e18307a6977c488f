// Command conformance runs the differential-conformance matrix: every
// execution strategy (serial/threaded branch-free gather, branchy gather,
// scatter reference, hybrid executor at several migration fractions,
// in-process multi-rank over the dist runtime) integrates the same cases — the named
// Williamson/Galewsky ones plus seeded random cases — and the final
// trajectories are compared against the serial baseline under each pair's
// documented tolerance (bitwise for arithmetic-identical strategies, the
// roundoff-reordering band for the scatter form).
//
// The run finishes with a negative self-check: a deliberately perturbed
// kernel must be DETECTED, proving the comparator has teeth. Exit status is
// non-zero on any divergence (or on a perturbation that slips through).
//
// Usage:
//
//	conformance                          # level-2 mesh, all cases, 20 random seeds
//	conformance -level 3 -steps 4        # bigger mesh, longer trajectories
//	conformance -cases tc2,tc5 -random 0 # named cases only
//	conformance -strategies gather-branchy,dist-r2
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/conform"
	"repro/internal/mesh"
	"repro/internal/results"
)

func main() {
	level := flag.Int("level", 2, "mesh subdivision level for the named cases")
	steps := flag.Int("steps", 2, "RK-4 steps per case")
	caseList := flag.String("cases", strings.Join(conform.NamedCaseNames(), ","),
		"comma-separated named cases (empty for none)")
	nrandom := flag.Int("random", 20, "number of seeded random cases")
	seed := flag.Uint64("seed", 1, "base seed for the random cases")
	randLevel := flag.Int("randlevel", 2, "mesh subdivision level for random cases")
	strategyList := flag.String("strategies", "", "comma-separated strategy subset (default: all)")
	noSelfCheck := flag.Bool("noselfcheck", false, "skip the perturbation-detection negative test")
	csv := flag.String("csv", "", "write the result matrix as CSV")
	flag.Parse()

	start := time.Now()
	strategies := conform.AllStrategies()
	if *strategyList != "" {
		var picked []conform.Strategy
		for _, name := range strings.Split(*strategyList, ",") {
			s, ok := conform.StrategyByName(strings.TrimSpace(name))
			if !ok {
				log.Fatalf("unknown strategy %q", name)
			}
			picked = append(picked, s)
		}
		strategies = picked
	}
	base := conform.Baseline()

	var cases []*conform.Case
	if *caseList != "" {
		m, err := mesh.Build(*level, mesh.Options{})
		if err != nil {
			log.Fatal(err)
		}
		for _, name := range strings.Split(*caseList, ",") {
			c, err := conform.NamedCase(strings.TrimSpace(name), m, *steps)
			if err != nil {
				log.Fatal(err)
			}
			cases = append(cases, c)
		}
	}
	cases = append(cases, conform.RandomCases(*seed, *nrandom, *randLevel, *steps)...)

	tab := results.NewTable("conformance matrix",
		"case", "strategy", "tolerance", "max_ulp", "rel_l2", "rel_linf", "status")
	failures := 0
	for _, c := range cases {
		ref, err := base.Run(c, true)
		if err != nil {
			log.Fatalf("%s: baseline: %v", c.Name, err)
		}
		for _, s := range strategies {
			if s.Name == base.Name {
				continue
			}
			res, err := s.Run(c, true)
			if err != nil {
				log.Fatalf("%s/%s: %v", c.Name, s.Name, err)
			}
			tol := conform.PairTolerance(base, s, c.Steps)
			tolName := "reorder"
			if tol.RelLInf == 0 {
				tolName = "exact"
			}
			d, ok := conform.CompareResults(ref, res, tol)
			status := "PASS"
			if !ok {
				status = "FAIL"
				failures++
				fmt.Fprintf(os.Stderr, "FAIL %s/%s: %v\n", c.Name, s.Name, d)
			}
			ulp := fmt.Sprintf("%d", d.MaxULP)
			if d.MaxULP > 1<<53 {
				ulp = "huge" // spans zero or mismatched magnitudes; rel norms tell the story
			}
			tab.AddRow(c.Name, s.Name, tolName, ulp,
				fmt.Sprintf("%.2e", d.RelL2), fmt.Sprintf("%.2e", d.RelLInf), status)
		}
	}
	tab.WriteText(os.Stdout)

	if !*noSelfCheck {
		fmt.Println("\nnegative self-check (a corrupted kernel must be detected):")
		m, err := mesh.Build(*randLevel, mesh.Options{})
		if err != nil {
			log.Fatal(err)
		}
		c, err := conform.NamedCase("tc2", m, *steps)
		if err != nil {
			log.Fatal(err)
		}
		ref, err := base.Run(c, true)
		if err != nil {
			log.Fatal(err)
		}
		for _, id := range []string{"A1", "X2", "D1", "E"} {
			res, err := conform.PerturbedStrategy(id, 0).Run(c, true)
			if err != nil {
				log.Fatal(err)
			}
			d, ok := conform.CompareResults(ref, res, conform.ReorderTol(c.Steps))
			if ok {
				failures++
				fmt.Printf("  pattern %s: NOT DETECTED — comparator is blind\n", id)
			} else {
				fmt.Printf("  pattern %s: detected at step %d stage %d (%s[%d])\n",
					id, d.Step, d.Stage, d.Var, d.Index)
			}
		}
	}

	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			log.Fatal(err)
		}
		if err := tab.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	n := len(cases)
	fmt.Printf("\n%d cases x %d strategies in %v\n", n, len(strategies), time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		fmt.Printf("FAIL: %d divergences\n", failures)
		os.Exit(1)
	}
	fmt.Println("PASS: all strategies agree within documented tolerances")
}
