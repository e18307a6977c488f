package conform

import (
	"fmt"
	"sync"

	"repro/internal/hybrid"
	"repro/internal/mpisim"
	"repro/internal/par"
	"repro/internal/sw"
)

// Strategy is one way of executing a Case's trajectory.
type Strategy struct {
	// Name identifies the strategy in reports (e.g. "hybrid-f50").
	Name string
	// Exact marks strategies whose per-element arithmetic is identical to
	// the branch-free gather baseline (chunking/splitting/distribution only
	// re-partitions the index ranges): pairs of exact strategies are held to
	// ExactTol, pairs involving a reordered one to ReorderTol.
	Exact bool
	// RelBand, when nonzero, is the documented per-step relative-error band
	// of a reduced-precision strategy: comparisons involving it are held to
	// RelBand*(steps+1) in relative l-inf/l-2 instead of the float64 bands
	// (see PairTolerance). Fast32Band is the calibrated value for the
	// float32 fast mode.
	RelBand float64

	run func(c *Case, recordStages bool) (*Result, error)
}

// Run executes the case under this strategy. With recordStages, per-substep
// state snapshots are kept (where the strategy supports it) so a divergence
// can be localized to an RK step and stage.
func (st Strategy) Run(c *Case, recordStages bool) (*Result, error) {
	res, err := st.run(c, recordStages)
	if err != nil {
		return nil, fmt.Errorf("conform: %s on %s: %w", st.Name, c.Name, err)
	}
	res.Strategy = st.Name
	return res, nil
}

// runSolver integrates c.Steps steps on an initialized solver, recording
// invariants each step and (optionally) every substep state.
func runSolver(s *sw.Solver, c *Case, recordStages bool) *Result {
	res := &Result{}
	if recordStages {
		step := 0
		s.PostSubstep = func(stage int, st *sw.State) {
			res.Stages = append(res.Stages, StageState{
				Step: step, Stage: stage, H: cloneField(st.H), U: cloneField(st.U),
			})
			if stage == 3 {
				step++
			}
		}
	}
	record := func() {
		inv := s.ComputeInvariants()
		res.Inv = append(res.Inv, inv)
		res.Mass = append(res.Mass, inv.Mass)
	}
	record()
	for i := 0; i < c.Steps; i++ {
		s.Step()
		record()
	}
	res.H = cloneField(s.State.H)
	res.U = cloneField(s.State.U)
	return res
}

// solverStrategy builds a strategy around a fresh solver whose Runner is
// chosen by mkRunner (returning an optional cleanup).
func solverStrategy(name string, exact bool, mkRunner func(s *sw.Solver) (func(), error)) Strategy {
	return Strategy{Name: name, Exact: exact, run: func(c *Case, recordStages bool) (*Result, error) {
		s, err := sw.NewSolver(c.Mesh, c.Cfg)
		if err != nil {
			return nil, err
		}
		cleanup, err := mkRunner(s)
		if err != nil {
			return nil, err
		}
		if cleanup != nil {
			defer cleanup()
		}
		c.Setup(s)
		return runSolver(s, c, recordStages), nil
	}}
}

// Baseline is the branch-free gather solver on one goroutine (Algorithm 4,
// the form every other strategy is compared against).
func Baseline() Strategy {
	return solverStrategy("gather-serial", true, func(s *sw.Solver) (func(), error) {
		s.Runner = sw.SerialRunner{}
		return nil, nil
	})
}

// Threaded is the branch-free gather solver on a worker pool (one fused
// parallel region per kernel, §4.B).
func Threaded(workers int) Strategy {
	name := fmt.Sprintf("threaded-w%d", workers)
	return solverStrategy(name, true, func(s *sw.Solver) (func(), error) {
		pool := par.NewPool(workers)
		s.Runner = sw.PoolRunner{Pool: pool}
		return pool.Close, nil
	})
}

// Plan is the data-flow-compiled step: the whole RK-4 step lowered into one
// flat schedule executed inside a single parallel region, with barriers only
// at true dependency frontiers. Arithmetic is bitwise-identical to the gather
// baseline (fusion and liveness elision never reassociate a sum), so the
// strategy is exact.
func Plan(workers int) Strategy {
	name := fmt.Sprintf("plan-w%d", workers)
	return solverStrategy(name, true, func(s *sw.Solver) (func(), error) {
		pool := par.NewPool(workers)
		r, err := sw.NewPlanRunner(s, pool)
		if err != nil {
			pool.Close()
			return nil, err
		}
		s.Runner = r
		return pool.Close, nil
	})
}

// TaskPlanned is the task-dataflow execution of the compiled step: the same
// schedule as Plan lowered into a dependency-counted task graph run on
// work-stealing deques, with no level barriers. Every task executes the same
// closure over the same index range as the barrier schedule entry it came
// from, and the dependency edges enforce every hazard the barriers enforced,
// so any steal-induced interleaving is a legal topological order of identical
// arithmetic: exact.
func TaskPlanned(workers int) Strategy {
	name := fmt.Sprintf("taskplan-w%d", workers)
	return solverStrategy(name, true, func(s *sw.Solver) (func(), error) {
		pool := par.NewPool(workers)
		r, err := sw.NewTaskPlanRunner(s, pool)
		if err != nil {
			pool.Close()
			return nil, err
		}
		s.Runner = r
		return pool.Close, nil
	})
}

// Fast32Band is the documented per-step relative-error band of the float32
// fast mode against the float64 trajectory. Calibration (TestFast32Band):
// across the named cases and seeded random cases at levels 2-4, the observed
// per-step relative l-inf drift tops out near 1e-6 (a handful of float32
// ulps, 1.2e-7 each, per RK stage); the band carries ~5x headroom. The
// negative control in fast32_test.go pins that a 100x tighter band fails, so
// the tolerance stays honest.
const Fast32Band = 5e-6

// Fast32 is the float32 fast-mode step (sw.NewFast32Runner): the compiled
// plan instantiated at float32 over CSR-packed SoA arrays, loading from and
// storing to the float64 state around each step. Not exact by construction;
// held to Fast32Band per step. Stage recording is forcibly disabled: a
// PostSubstep hook would silently route the run through the float64 path,
// and a fast32 result must actually measure fast32.
func Fast32(workers int) Strategy {
	return fast32(fmt.Sprintf("fast32-w%d", workers), workers, sw.NewFast32Runner)
}

// Fast32Task is Fast32 lowered to the task graph
// (sw.NewFast32TaskPlanRunner). Every task runs the same float32 closure
// over the same range as the barrier schedule, so it matches Fast32 to the
// bit; it is held to the same band against the baseline.
func Fast32Task(workers int) Strategy {
	return fast32(fmt.Sprintf("fast32-taskplan-w%d", workers), workers, sw.NewFast32TaskPlanRunner)
}

func fast32(name string, workers int, compile func(*sw.Solver, *par.Pool) (*sw.CompiledRunner[float32], error)) Strategy {
	st := solverStrategy(name, false, func(s *sw.Solver) (func(), error) {
		pool := par.NewPool(workers)
		r, err := compile(s, pool)
		if err != nil {
			pool.Close()
			return nil, err
		}
		s.Runner = r
		return pool.Close, nil
	})
	st.RelBand = Fast32Band
	inner := st.run
	st.run = func(c *Case, _ bool) (*Result, error) { return inner(c, false) }
	return st
}

// HybridPattern is the Figure-4(b) pattern-driven hybrid executor with the
// given adjustable host fraction (the migration fraction of the split cell
// patterns).
func HybridPattern(frac float64) Strategy {
	name := fmt.Sprintf("hybrid-f%02.0f", frac*100)
	return solverStrategy(name, true, func(s *sw.Solver) (func(), error) {
		e := hybrid.NewHybridSolver(s, hybrid.PatternDrivenSchedule(frac), 2, 2)
		return e.Close, nil
	})
}

// HybridKernel is the Figure-2 kernel-level hybrid executor.
func HybridKernel() Strategy {
	return solverStrategy("kernel-level", true, func(s *sw.Solver) (func(), error) {
		e := hybrid.NewHybridSolver(s, hybrid.KernelLevelSchedule(), 2, 2)
		return e.Close, nil
	})
}

// ScatterRef is the Algorithm-2 serial scatter reference stepper: the
// original MPAS loop shapes, summation-reordered relative to the gather
// forms ("consistent within the machine precision", paper Fig. 5c).
func ScatterRef() Strategy {
	return refStrategy("scatter-ref", false, scatterForms)
}

// BranchyGather is the Algorithm-3 stepper: gather loops with the
// orientation sign resolved by conditionals — bitwise-equivalent to the
// solver's branch-free Algorithm-4 kernels.
func BranchyGather() Strategy {
	return refStrategy("gather-branchy", true, branchyForms)
}

func refStrategy(name string, exact bool, f forms) Strategy {
	return Strategy{Name: name, Exact: exact, run: func(c *Case, recordStages bool) (*Result, error) {
		s, err := sw.NewSolver(c.Mesh, c.Cfg)
		if err != nil {
			return nil, err
		}
		c.Setup(s)
		stepper := newRefStepper(s, f)
		res := &Result{}
		record := func() {
			inv := s.ComputeInvariants()
			res.Inv = append(res.Inv, inv)
			res.Mass = append(res.Mass, inv.Mass)
		}
		record()
		for i := 0; i < c.Steps; i++ {
			step := i
			var rec func(stage int, st *sw.State)
			if recordStages {
				rec = func(stage int, st *sw.State) {
					res.Stages = append(res.Stages, StageState{
						Step: step, Stage: stage, H: cloneField(st.H), U: cloneField(st.U),
					})
				}
			}
			stepper.step(rec)
			record()
		}
		res.H = cloneField(s.State.H)
		res.U = cloneField(s.State.U)
		return res, nil
	}}
}

// MPI is the distributed strategy: the case decomposed across ranks
// goroutines with 3-layer halos, the final owned fields gathered back to
// global indexing. Owned points reproduce the serial run bitwise; only the
// global mass series is recorded per step (full invariants are rank-local).
func MPI(ranks int) Strategy {
	name := fmt.Sprintf("mpisim-r%d", ranks)
	return Strategy{Name: name, Exact: true, run: func(c *Case, _ bool) (*Result, error) {
		d, err := mpisim.Decompose(c.Mesh, ranks)
		if err != nil {
			return nil, err
		}
		res := &Result{}
		var mu sync.Mutex
		var firstErr error
		w := mpisim.NewWorld(ranks)
		w.Run(func(comm *mpisim.Comm) {
			rs, err := mpisim.NewRankSolver(comm, d, c.Cfg, c.Setup)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			record := func() {
				mass := rs.GlobalMass()
				if comm.Rank == 0 {
					res.Mass = append(res.Mass, mass)
				}
			}
			record()
			for i := 0; i < c.Steps; i++ {
				rs.Step()
				record()
			}
			h := rs.GatherCellField(rs.S.State.H)
			u := rs.GatherEdgeField(rs.S.State.U)
			if comm.Rank == 0 {
				res.H, res.U = h, u
			}
		})
		if firstErr != nil {
			return nil, firstErr
		}
		return res, nil
	}}
}

// AllStrategies returns the full conformance set: the gather baseline, its
// branchy and scatter reference forms, the threaded pool, both hybrid
// designs at several migration fractions, and distributed runs. The first
// entry is the baseline.
func AllStrategies() []Strategy {
	return []Strategy{
		Baseline(),
		BranchyGather(),
		ScatterRef(),
		Threaded(4),
		Plan(1),
		Plan(4),
		Plan(8),
		TaskPlanned(1),
		TaskPlanned(4),
		TaskPlanned(8),
		HybridKernel(),
		HybridPattern(0),
		HybridPattern(0.25),
		HybridPattern(0.5),
		HybridPattern(1),
		MPI(2),
		MPI(4),
		Fast32(1),
		Fast32(4),
		Fast32Task(1),
		Fast32Task(4),
	}
}

// StrategyByName returns the strategy with the given name from
// AllStrategies, or false.
func StrategyByName(name string) (Strategy, bool) {
	for _, s := range AllStrategies() {
		if s.Name == name {
			return s, true
		}
	}
	return Strategy{}, false
}
