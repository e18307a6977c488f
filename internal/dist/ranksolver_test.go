package dist

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/halo"
	"repro/internal/hybrid"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/sw"
	"repro/internal/testcases"
)

// serialRun is the single-process reference trajectory of setup on the
// level-`level` default mesh after steps steps.
func serialRun(t *testing.T, level, steps int, setup func(*sw.Solver)) *sw.Solver {
	t.Helper()
	m := testMesh(t, level)
	s, err := sw.NewSolver(m, sw.DefaultConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	setup(s)
	s.Run(steps)
	return s
}

// ownedMismatch reports the first owned cell or edge where rs differs from
// the serial state, or "" when every owned value is bitwise equal.
func ownedMismatch(rs *RankSolver, serial *sw.Solver) string {
	l := rs.Local
	for lc := 0; lc < l.NOwnedCells; lc++ {
		if rs.S.State.H[lc] != serial.State.H[l.CellL2G[lc]] {
			return fmt.Sprintf("H diverges at owned cell %d", lc)
		}
	}
	for le, g := range l.EdgeL2G {
		if int(l.EdgeOwner[le]) == rs.Comm.Rank && rs.S.State.U[le] != serial.State.U[g] {
			return fmt.Sprintf("U diverges at owned edge %d", le)
		}
	}
	return ""
}

// tracerQ registers the test tracer q = 1 + 0.4 lat on s.
func tracerQ(s *sw.Solver) *sw.Tracer {
	q := make([]float64, s.M.NCells)
	for c := range q {
		q[c] = 1 + 0.4*s.M.LatCell[c]
	}
	return s.AddTracer("q", q)
}

// Tracers are exchanged at substage boundaries after h and u, so a
// distributed tracer run reproduces the single-process tracer trajectory
// bitwise on owned cells.
func TestDistributedTracerBitwiseMatchesSerial(t *testing.T) {
	const level, steps, ranks = 4, 3, 3
	var serialTr *sw.Tracer
	serial := serialRun(t, level, steps, func(s *sw.Solver) {
		testcases.SetupTC5(s)
		serialTr = tracerQ(s)
	})
	m := testMesh(t, level)
	runWorldBoot(t, ranks, bisectOwner(t, m, ranks), func(b *Bootstrap) error {
		rs, err := NewRankSolver(b, m, sw.DefaultConfig(m), func(s *sw.Solver) {
			testcases.SetupTC5(s)
			tracerQ(s)
		}, nil, RankOptions{})
		if err != nil {
			return err
		}
		if err := rs.Run(steps); err != nil {
			return err
		}
		if msg := ownedMismatch(rs, serial); msg != "" {
			return fmt.Errorf("%s", msg)
		}
		tr := rs.S.Tracers[0]
		for lc := 0; lc < rs.Local.NOwnedCells; lc++ {
			if tr.Q[lc] != serialTr.Q[rs.Local.CellL2G[lc]] {
				return fmt.Errorf("tracer diverges at owned cell %d", lc)
			}
		}
		return nil
	})
}

// The overlap schedule has no slot for tracer exchanges, so NewRankSolver
// refuses the combination instead of stepping tracers with stale halos.
func TestOverlapRejectsTracers(t *testing.T) {
	m := testMesh(t, 3)
	err := RunLocal(2, bisectOwner(t, m, 2), func(b *Bootstrap) error {
		_, err := NewRankSolver(b, m, sw.DefaultConfig(m), func(s *sw.Solver) {
			testcases.SetupTC5(s)
			tracerQ(s)
		}, nil, RankOptions{Overlap: true})
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "tracer") {
		t.Fatalf("overlap with tracers: got %v, want an error naming the tracers", err)
	}
}

// The paper's full configuration: several ranks, each running the
// pattern-driven hybrid executor on its local mesh (one CPU + one
// accelerator per rank, §5), must still match the serial trajectory bitwise
// on owned entities.
func TestDistributedHybridBitwiseMatchesSerial(t *testing.T) {
	const level, steps, ranks = 4, 3, 3
	serial := serialRun(t, level, steps, testcases.SetupTC5)
	m := testMesh(t, level)
	runWorldBoot(t, ranks, bisectOwner(t, m, ranks), func(b *Bootstrap) error {
		rs, err := NewRankSolver(b, m, sw.DefaultConfig(m), testcases.SetupTC5, nil, RankOptions{})
		if err != nil {
			return err
		}
		mc := perfmodel.MeshCounts{Cells: rs.S.M.NCells, Edges: rs.S.M.NEdges, Vertices: rs.S.M.NVertices}
		e := hybrid.NewExecutor(hybrid.PatternDrivenSchedule(0.3), mc, 2, 2)
		defer e.Close()
		rs.S.Runner = e
		if err := rs.Run(steps); err != nil {
			return err
		}
		if e.SimTime() <= 0 {
			return fmt.Errorf("no simulated platform time accumulated")
		}
		if msg := ownedMismatch(rs, serial); msg != "" {
			return fmt.Errorf("hybrid: %s", msg)
		}
		return nil
	})
}

// shallowHaloDiff runs a 4-rank TC5 trajectory with a halo of the given
// depth and returns the largest owned-cell |h - h_serial| over all ranks.
func shallowHaloDiff(t *testing.T, layers int) float64 {
	const level, steps, ranks = 4, 3, 4
	serial := serialRun(t, level, steps, testcases.SetupTC5)
	m := testMesh(t, level)
	diffs := make([]float64, ranks)
	runWorldBoot(t, ranks, bisectOwner(t, m, ranks), func(b *Bootstrap) error {
		rs, err := newRankSolver(b, m, sw.DefaultConfig(m), testcases.SetupTC5, nil, RankOptions{}, layers)
		if err != nil {
			return err
		}
		if err := rs.Run(steps); err != nil {
			return err
		}
		for lc := 0; lc < rs.Local.NOwnedCells; lc++ {
			d := math.Abs(rs.S.State.H[lc] - serial.State.H[rs.Local.CellL2G[lc]])
			diffs[b.Comm.Rank] = math.Max(diffs[b.Comm.Rank], d)
		}
		return nil
	})
	worst := 0.0
	for _, d := range diffs {
		worst = math.Max(worst, d)
	}
	return worst
}

// Failure injection: with a halo depth below the RK substage dependency
// radius, owned values MUST diverge from the serial trajectory. If a
// 1-layer halo still matches, either the HaloLayers derivation is wrong or
// the bitwise tests have lost their teeth.
func TestShallowHaloDiverges(t *testing.T) {
	d := shallowHaloDiff(t, 1)
	if d == 0 {
		t.Error("1-layer halo reproduced serial exactly; dependency analysis must be wrong")
	}
	// Errors enter from the boundary; within a few steps they stay small.
	if d > 100 {
		t.Errorf("shallow halo blew up immediately: max diff %v m", d)
	}
}

// Two layers are not enough either (the APVM + edgesOnEdge chain reaches
// three cells), which is why HaloLayers == 3.
func TestTwoLayerHaloAlsoInsufficient(t *testing.T) {
	if shallowHaloDiff(t, 2) == 0 {
		t.Skip("2-layer halo happened to suffice on this mesh/partition; radius bound is conservative")
	}
}

// Steady-state halo exchanges reuse the Exchanger's persistent per-peer
// buffers and the links' frame buffers. The gate counts process-wide
// mallocs over a window of exchanges on both ranks (GC off so nothing is
// purged mid-window) and allows well under one per exchange; a per-peer
// buffer allocated per exchange would cost at least two.
func TestExchangeAllocFree(t *testing.T) {
	m := testMesh(t, 3)
	const n, warmup, iters = 2, 16, 200
	owner := bisectOwner(t, m, n)
	var before, after runtime.MemStats
	runWorldBoot(t, n, owner, func(b *Bootstrap) error {
		part, err := partition.FromOwner(b.Owner, n)
		if err != nil {
			return err
		}
		locals := make([]*partition.Local, n)
		for r := range locals {
			locals[r] = partition.Extract(m, part, r, HaloLayers)
		}
		spec := halo.BuildSpecs(m, locals)[b.Comm.Rank]
		if err := b.ConnectPeers(spec.Peers); err != nil {
			return err
		}
		e := NewExchanger(b.Comm, spec)
		l := locals[b.Comm.Rank]
		cellF := make([]float64, len(l.CellL2G))
		edgeF := make([]float64, len(l.EdgeL2G))
		for i := 0; i < warmup; i++ {
			if err := e.Exchange(cellF, edgeF); err != nil {
				return err
			}
		}
		if err := b.Comm.Barrier(); err != nil {
			return err
		}
		if b.Comm.Rank == 0 {
			old := debug.SetGCPercent(-1)
			defer debug.SetGCPercent(old)
			runtime.ReadMemStats(&before)
		}
		if err := b.Comm.Barrier(); err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := e.Exchange(cellF, edgeF); err != nil {
				return err
			}
		}
		if err := b.Comm.Barrier(); err != nil {
			return err
		}
		if b.Comm.Rank == 0 {
			runtime.ReadMemStats(&after)
		}
		return nil
	})
	perExchange := float64(after.Mallocs-before.Mallocs) / iters
	t.Logf("allocs per exchange (both ranks): %.3f", perExchange)
	if perExchange > 0.5 {
		t.Fatalf("halo exchange allocates %.2f objects per exchange; buffers are not being reused", perExchange)
	}
}

// A rank whose body fails after NewRankSolver is named in RunLocal's error,
// and its peers, which keep stepping, see its torn-down links at once
// instead of waiting out DefaultTimeout.
func TestRunLocalNamesFailedRank(t *testing.T) {
	m := testMesh(t, 3)
	const ranks, failing = 3, 2
	injected := errors.New("injected failure")
	start := time.Now()
	err := RunLocal(ranks, bisectOwner(t, m, ranks), func(b *Bootstrap) error {
		rs, err := NewRankSolver(b, m, sw.DefaultConfig(m), testcases.SetupTC5, nil, RankOptions{})
		if err != nil {
			return err
		}
		if b.Comm.Rank == failing {
			return injected
		}
		for i := 0; i < 1000; i++ {
			if err := rs.Step(); err != nil {
				return err
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, injected) {
		t.Fatalf("RunLocal error %v does not carry the injected failure", err)
	}
	failed := map[string]bool{}
	for _, line := range strings.Split(err.Error(), "\n") {
		failed[strings.SplitN(line, ":", 2)[0]] = true
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("rank %d: injected failure", failing)) {
		t.Errorf("error does not name the failed rank: %v", err)
	}
	for r := 0; r < ranks; r++ {
		if !failed[fmt.Sprintf("rank %d", r)] {
			t.Errorf("rank %d returned no error; its peer's failure went unnoticed: %v", r, err)
		}
	}
	if elapsed > DefaultTimeout/3 {
		t.Errorf("failure took %v to surface (DefaultTimeout %v)", elapsed, DefaultTimeout)
	}
}
