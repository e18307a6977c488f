package dist

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/halo"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sw"
	"repro/internal/telemetry"
	"repro/internal/testcases"
)

var meshCache sync.Map // level -> *mesh.Mesh

func testMesh(t testing.TB, level int) *mesh.Mesh {
	if m, ok := meshCache.Load(level); ok {
		return m.(*mesh.Mesh)
	}
	m, err := DefaultMesh(level)
	if err != nil {
		t.Fatal(err)
	}
	meshCache.Store(level, m)
	return m
}

func bisectOwner(t testing.TB, m *mesh.Mesh, n int) []int32 {
	p, err := partition.Bisect(m, n)
	if err != nil {
		t.Fatal(err)
	}
	return p.Owner
}

// The halo exchange over real TCP: every rank publishes its owned entities'
// global ids, poisons its halo slots, exchanges, and checks every halo slot
// now holds the correct global id. Exercises spec construction from the
// distributed owner map, pack/send/recv/unpack through the frame layer, and
// the per-peer persistent buffers.
func TestExchangerFillsHalos(t *testing.T) {
	m := testMesh(t, 3)
	const n = 3
	owner := bisectOwner(t, m, n)
	runWorld(t, n, owner, nil, func(b *Bootstrap) error {
		part, err := partition.FromOwner(b.Owner, n)
		if err != nil {
			return err
		}
		locals := make([]*partition.Local, n)
		for r := 0; r < n; r++ {
			locals[r] = partition.Extract(m, part, r, HaloLayers)
		}
		l := locals[b.Comm.Rank]
		// runWorld already linked all-to-all; the exchanger only uses its
		// spec's peers, extra links stay idle.
		spec := halo.BuildSpecs(m, locals)[b.Comm.Rank]
		e := NewExchanger(b.Comm, spec)
		e.EnableTelemetry(telemetry.NewRegistry())

		cellF := make([]float64, len(l.CellL2G))
		edgeF := make([]float64, len(l.EdgeL2G))
		for lc, g := range l.CellL2G {
			if lc < l.NOwnedCells {
				cellF[lc] = float64(g)
			} else {
				cellF[lc] = -1e300
			}
		}
		for le, g := range l.EdgeL2G {
			if int(l.EdgeOwner[le]) == b.Comm.Rank {
				edgeF[le] = 1e6 + float64(g)
			} else {
				edgeF[le] = -1e300
			}
		}
		for round := 0; round < 3; round++ {
			if err := e.Exchange(cellF, edgeF); err != nil {
				return err
			}
		}
		for lc, g := range l.CellL2G {
			if cellF[lc] != float64(g) {
				return fmt.Errorf("cell %d (global %d): %v", lc, g, cellF[lc])
			}
		}
		for le, g := range l.EdgeL2G {
			if edgeF[le] != 1e6+float64(g) {
				return fmt.Errorf("edge %d (global %d): %v", le, g, edgeF[le])
			}
		}
		if e.Exchanges != 3 {
			return fmt.Errorf("exchange count %d", e.Exchanges)
		}
		return nil
	})
}

// The decisive conformance test of the TCP substrate: multi-rank solver
// runs — blocking and overlapped — through real sockets must reproduce the
// single-process serial trajectory BITWISE on owned entities.
func TestRankSolverBitwiseMatchesSerial(t *testing.T) {
	m := testMesh(t, 3)
	cfg := sw.DefaultConfig(m)
	steps := 2

	serial, err := sw.NewSolver(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	testcases.SetupTC5(serial)
	serial.Run(steps)

	for _, tc := range []struct {
		ranks    int
		overlap  bool
		taskplan bool
		workers  int
	}{
		{2, false, false, 1}, {2, true, false, 1}, {3, true, false, 2},
		{2, false, true, 1}, {2, true, true, 2}, {3, true, true, 2},
	} {
		owner := bisectOwner(t, m, tc.ranks)
		runWorldBoot(t, tc.ranks, owner, func(b *Bootstrap) error {
			var pool *par.Pool
			if tc.workers > 1 {
				pool = par.NewPool(tc.workers)
				defer pool.Close()
			}
			rs, err := NewRankSolver(b, m, cfg, testcases.SetupTC5, pool,
				RankOptions{Overlap: tc.overlap, TaskPlan: tc.taskplan})
			if err != nil {
				return err
			}
			if err := rs.Run(steps); err != nil {
				return err
			}
			if rs.Ex.Exchanges != 4*steps+1 { // +1 bootstrap
				return fmt.Errorf("exchange count %d, want %d", rs.Ex.Exchanges, 4*steps+1)
			}
			for lc := 0; lc < rs.Local.NOwnedCells; lc++ {
				if rs.S.State.H[lc] != serial.State.H[rs.Local.CellL2G[lc]] {
					return fmt.Errorf("H diverges at owned cell %d", lc)
				}
			}
			for le := range rs.Local.EdgeL2G {
				if int(rs.Local.EdgeOwner[le]) != b.Comm.Rank {
					continue
				}
				if rs.S.State.U[le] != serial.State.U[rs.Local.EdgeL2G[le]] {
					return fmt.Errorf("U diverges at owned edge %d", le)
				}
			}
			// Gathered fields on rank 0 must equal the serial state exactly.
			h, err := rs.GatherCellField(rs.S.State.H)
			if err != nil {
				return err
			}
			u, err := rs.GatherEdgeField(rs.S.State.U)
			if err != nil {
				return err
			}
			gm, err := rs.GlobalMass()
			if err != nil {
				return err
			}
			_ = gm
			if b.Comm.Rank == 0 {
				for i := range h {
					if h[i] != serial.State.H[i] {
						return fmt.Errorf("gathered H[%d] diverges", i)
					}
				}
				for i := range u {
					if u[i] != serial.State.U[i] {
						return fmt.Errorf("gathered U[%d] diverges", i)
					}
				}
			}
			return nil
		})
	}
}

// A blocking and an overlapped run through the SAME substrate must agree on
// the global mass series exactly (same owned values, same reduction order).
func TestBlockingAndOverlapMassAgree(t *testing.T) {
	m := testMesh(t, 3)
	cfg := sw.DefaultConfig(m)
	steps := 2
	owner := bisectOwner(t, m, 2)
	massOf := func(overlap bool) []float64 {
		var mu sync.Mutex
		out := make([]float64, 0, steps)
		runWorldBoot(t, 2, owner, func(b *Bootstrap) error {
			rs, err := NewRankSolver(b, m, cfg, testcases.SetupTC5, nil, RankOptions{Overlap: overlap})
			if err != nil {
				return err
			}
			for i := 0; i < steps; i++ {
				if err := rs.Step(); err != nil {
					return err
				}
				gm, err := rs.GlobalMass()
				if err != nil {
					return err
				}
				if b.Comm.Rank == 0 {
					mu.Lock()
					out = append(out, gm)
					mu.Unlock()
				}
			}
			return nil
		})
		return out
	}
	blocking := massOf(false)
	overlap := massOf(true)
	if len(blocking) != steps || len(overlap) != steps {
		t.Fatalf("mass series lengths %d/%d, want %d", len(blocking), len(overlap), steps)
	}
	for i := range blocking {
		if blocking[i] != overlap[i] {
			t.Fatalf("step %d: mass %v (blocking) != %v (overlap)", i, blocking[i], overlap[i])
		}
	}
}
