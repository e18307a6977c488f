package mpisim_test

// Conformance of the real multi-rank runs whose cost this package models:
// with the full 3-layer halo depth, the gathered owned fields after a
// multi-step trajectory must match the serial baseline bitwise (each owned
// point sees exactly the serial stencil inputs), and the allreduced mass
// series must track the serial one to roundoff and stay conserved.

import (
	"math"
	"testing"

	"repro/internal/conform"
	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/partition"
	"repro/internal/sw"
	"repro/internal/testcases"
)

func TestDistributedConform(t *testing.T) {
	m := mesh.MustBuild(2, mesh.Options{})
	base := conform.Baseline()
	cases := []struct {
		caseName string
		ranks    int
		steps    int
	}{
		{"tc2", 2, 3},
		{"tc2", 4, 3},
		{"tc5", 2, 2},
		{"tc6", 3, 2},
		{"galewsky", 4, 2},
	}
	refs := map[string]*conform.Result{}
	for _, tc := range cases {
		c, err := conform.NamedCase(tc.caseName, m, tc.steps)
		if err != nil {
			t.Fatal(err)
		}
		ref := refs[tc.caseName]
		if ref == nil {
			if ref, err = base.Run(c, false); err != nil {
				t.Fatal(err)
			}
			refs[tc.caseName] = ref
		}
		s := conform.MPI(tc.ranks)
		t.Run(c.Name+"/"+s.Name, func(t *testing.T) {
			res, err := s.Run(c, false)
			if err != nil {
				t.Fatal(err)
			}
			d, ok := conform.CompareResults(ref, res, conform.ExactTol)
			if !ok {
				t.Errorf("owned fields diverged from serial run: %v", d)
			}
			if len(res.Mass) != len(ref.Mass) {
				t.Fatalf("%d mass samples, want %d", len(res.Mass), len(ref.Mass))
			}
			for i := range ref.Mass {
				if rel := math.Abs(res.Mass[i]-ref.Mass[i]) / math.Abs(ref.Mass[i]); rel > 1e-12 {
					t.Errorf("mass series off by %.3e at step %d", rel, i)
				}
			}
		})
	}
}

func TestDistributedMassConserved(t *testing.T) {
	m, err := dist.DefaultMesh(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sw.DefaultConfig(m)
	const P = 3
	part, err := partition.Bisect(m, P)
	if err != nil {
		t.Fatal(err)
	}
	err = dist.RunLocal(P, part.Owner, func(b *dist.Bootstrap) error {
		rs, err := dist.NewRankSolver(b, m, cfg, testcases.SetupTC2, nil, dist.RankOptions{})
		if err != nil {
			return err
		}
		m0, err := rs.GlobalMass()
		if err != nil {
			return err
		}
		if err := rs.Run(5); err != nil {
			return err
		}
		m1, err := rs.GlobalMass()
		if err != nil {
			return err
		}
		if rel := math.Abs(m1-m0) / m0; rel > 1e-13 {
			t.Errorf("rank %d sees mass drift %v", b.Comm.Rank, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
