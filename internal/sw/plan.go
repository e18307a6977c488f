package sw

import (
	"fmt"
	"sort"
	"sync/atomic"
	"unsafe"

	"repro/internal/dataflow"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/pattern"
)

// This file implements data-flow-compiled step execution: at construction,
// the RK-4 step's kernel/pattern sequence is lowered through the data-flow
// graph (package dataflow) into a flat schedule of (op, range, barrier?)
// entries, executed inside ONE long-lived parallel region per step. The
// compiler goes beyond the per-kernel region fusion of PoolRunner in four
// ways:
//
//  1. Fusion: the RK substep/accumulate updates (X2..X5) are folded into the
//     tendency loops wherever the data flow proves the combined loop is
//     race-free, and the step-entry Provis/next copies are absorbed into
//     stage 0's initialization forms (hn = h0 + b*t instead of copy-then-add).
//  2. Liveness: a backward pass over the whole four-stage program elides ops
//     whose outputs are never consumed before being overwritten (divergence
//     and cell-averaged vorticity under default config, the velocity
//     reconstruction, and most of solve_diagnostics under AdvectionOnly).
//  3. Barrier minimization: dataflow.LevelsBy with a locality predicate
//     places a barrier only at true dependency frontiers — an edge whose
//     consumer reads only the element its own worker produced (pointwise
//     consumer, same index space, stable static chunking) needs no barrier.
//  4. Allocation-free dispatch: op closures, worker ranges and the region
//     callback are all precompiled, so a step performs zero allocations and
//     zero closure churn.
//
// Every schedule is verified at compile time: the flattened order must pass
// Graph.ValidateOrder, and every non-local dependency edge must be separated
// by at least one barrier (checked both with and without the optional
// PostSubstep hook in the schedule).
//
// The plan is generic over its arithmetic precision F. At float64 it works
// in the solver's own arrays and is bitwise identical to the kernel-by-kernel
// step. At float32 (the fast mode: half the bytes streamed per step) it owns
// a rounded working set, and its program gains ordinary ops at both ends — a
// prologue loading h/u/b from the float64 State and solving the entry
// diagnostics, an epilogue storing the accepted state and the invariant
// diagnostics back — so the float64 State stays the single source of truth
// (ensemble swaps, checkpoint restore) and liveness, leveling, verification
// and task lowering treat the float32 program like any other.

// stepRoots are the variables that must be correct after a plan step: the
// accepted prognostic state plus the diagnostics ComputeInvariants reads.
// Everything else either feeds the next step (kept live by the program's
// own upward-exposed reads) or is recomputed before use.
var stepRoots = []string{"h0", "u0", "ke", "pv_vertex", "h_vertex"}

// storeRoots are the float32 program's roots: the float64 images its
// epilogue writes (the "64" suffix names the solver's float64 arrays).
var storeRoots = []string{"h64", "u64", "ke64", "pv_vertex64", "h_vertex64"}

// opSpec is a schedulable operation before compilation: def/use metadata for
// the data-flow graph plus the compiled range closure.
type opSpec struct {
	id     string
	stage  int
	n      int
	shape  pattern.Shape
	out    pattern.PointType
	reads  []string
	writes []string
	run    func(lo, hi int)
	// hook marks the serial PostSubstep slot: executed by worker 0 only,
	// guarded at runtime on s.PostSubstep != nil, and never local to any
	// dependency edge.
	hook bool
}

func (sp opSpec) instance() pattern.Instance {
	return pattern.Instance{
		ID:     sp.id,
		Kernel: fmt.Sprintf("stage%d", sp.stage),
		Shape:  sp.shape,
		Out:    sp.out,
		Reads:  sp.reads,
		Writes: sp.writes,
	}
}

// planOp is one compiled schedule entry. post and wait mark the overlay's
// exchange ops (see overlap.go): post initiates the halo exchange on worker
// 0 with NO barrier (interior compute proceeds immediately), wait completes
// it on worker 0 with an unconditional barrier after.
type planOp struct {
	id      string
	stage   int
	run     func(lo, hi int)
	hook    bool
	post    bool
	wait    bool
	ranges  [][2]int32
	barrier bool
}

// plan is a compiled schedule executed inside one parallel region.
type plan struct {
	s   *Solver
	ops []planOp
	// ov is set on overlaid schedules only (see overlap.go); post/wait ops
	// call into it.
	ov *Overlap
	// exec is the bound method value handed to Pool.Region, created once so
	// launching the region allocates nothing.
	exec func(t *par.Team)
	// Compilation artifacts kept for structural tests: the kept specs in
	// program order, the execution order (positions into specs), and the
	// effective barrier flag per execution position.
	specs        []opSpec
	order        []int
	barrierAfter []bool
	barriers     int
}

// run executes the schedule as one worker of the region. Every worker
// executes the same op sequence over its own precomputed ranges; barriers
// synchronize exactly at the compiled frontiers. Hook slots run on worker 0
// with a barrier after — both are skipped when no hook is installed, which
// is safe because the preceding frontier's barrier already ordered the
// hook's inputs.
func (p *plan) run(t *par.Team) {
	s := p.s
	ops := p.ops
	for i := range ops {
		op := &ops[i]
		if op.hook {
			if hook := s.PostSubstep; hook != nil {
				if t.ID == 0 {
					st := s.Provis
					if op.stage == 3 {
						st = s.State
					}
					hook(op.stage, st)
				}
				t.Barrier()
			}
			continue
		}
		if op.post || op.wait {
			st := s.Provis
			if op.stage == 3 {
				st = s.State
			}
			if op.post {
				// No barrier: the previous frontier already ordered the
				// exchanged fields' writes, and interior ops never touch
				// them, so every worker proceeds while worker 0 packs.
				if t.ID == 0 {
					p.ov.Post(op.stage, st)
				}
				continue
			}
			if t.ID == 0 {
				p.ov.Wait(op.stage, st)
			}
			t.Barrier()
			continue
		}
		r := op.ranges[t.ID]
		if r[0] < r[1] {
			op.run(int(r[0]), int(r[1]))
		}
		if op.barrier {
			t.Barrier()
		}
	}
}

// Float is the arithmetic precision a compiled plan is instantiated at.
type Float interface{ float32 | float64 }

// CompiledRunner is a Runner that advances whole RK-4 steps through a
// compiled execution plan at precision F (Step() takes the plan path when a
// runner compiled for the solver is attached and no tracers are registered).
// For anything else — Init, tracer runs, direct kernel invocations —
// RunKernel executes the kernel's original float64 patterns through a
// per-kernel compiled schedule with no elision, so all diagnostics
// (including ones the step plan elides) are computed there.
//
// A plan step maintains the prognostic state, the invariant diagnostics
// (ke, h_vertex, pv_vertex) and everything the next step consumes; purely
// derived fields with no consumer (divergence and vorticity_cell under the
// default configuration, the velocity reconstruction) go stale. Checkpoint,
// conformance and invariant monitoring never read them; call Init to refresh
// them if needed.
type CompiledRunner[F Float] struct {
	s    *Solver
	pool *par.Pool
	// cfg snapshots the configuration the plan was specialized on; Step
	// refuses the plan path if the solver's Cfg has since been mutated
	// (e.g. a test-case setup flipping AdvectionOnly after construction).
	cfg Config

	// csr is the packed, index-validated image of the mesh adjacency the
	// compiled kernels gather through (see mesh.PackCSR); the pack-time
	// validation is what licenses their unchecked loads.
	csr *mesh.CSR

	// The working set the compiled kernels read and write (see bind):
	// accepted (h0/u0), provisional (hP/uP) and accumulator (hN/uN) state,
	// tendencies, bottom topography, diagnostics, mesh constants, and the
	// hoisted gather weights packed by csr.CellPtr (wA1, wA3, wKite) and by
	// vertex degree (wE).
	h0, hP, hN, tendH, b                []F
	u0, uP, uN, tendU                   []F
	hEdge, ke, pvEdge, v, div, d2, vort []F
	hVert, pvVert, pvCell               []F
	areaCell, dcEdge, dvEdge, wEdge     []F
	areaTri, fVertex, kite              []F
	wA1, wA3, wKite, wE                 []F

	// ov is non-nil on runners built by NewOverlapPlanRunner: the step plan
	// carries post/wait exchange ops instead of hook slots, and Step takes
	// the plan path only while s.PostSubstep stays nil.
	ov *Overlap

	stepPlan    *plan
	kernelPlans map[*Kernel]*plan
	rangeCache  map[int][][2]int32
	elided      []string

	// tasks is non-nil on task-graph runners (NewTaskPlanRunner,
	// NewOverlapTaskPlanRunner, NewFast32TaskPlanRunner): the step plan
	// lowered once more, from a level-barrier schedule to a
	// dependency-counted task graph (taskplan.go), which step() then runs
	// instead of the barrier region.
	tasks *par.TaskGraph
}

// PlanRunner is the float64 compiled plan — the reference precision,
// bitwise identical to the kernel-by-kernel step.
type PlanRunner = CompiledRunner[float64]

// planCompiles counts step-plan compilations process-wide, at every
// precision. Ensemble serving rides on the guarantee that K members share
// ONE compiled plan; tests pin that by asserting this counter's delta.
var planCompiles atomic.Int64

// PlanCompileCount returns the number of step-plan compilations (float64
// and float32, barrier and task-graph alike) performed by this process so
// far (monotone; read before/after an operation to count the compilations
// it triggered).
func PlanCompileCount() int64 { return planCompiles.Load() }

// NewPlanRunner compiles the float64 execution plan for s. The pool
// provides the worker team (nil means serial); the caller keeps ownership of
// it. The returned runner is specific to s and to the pool's worker count.
func NewPlanRunner(s *Solver, pool *par.Pool) (*PlanRunner, error) {
	return compileRunner[float64](s, pool, false)
}

// NewFast32Runner compiles the float32 execution plan for s (the fast mode,
// see CompiledRunner): the same program as NewPlanRunner's, instantiated at
// float32, with the load/store ops around it. Pool ownership as for
// NewPlanRunner.
func NewFast32Runner(s *Solver, pool *par.Pool) (*CompiledRunner[float32], error) {
	return compileRunner[float32](s, pool, false)
}

// compileRunner compiles the step plan for s at precision F, lowered to a
// task graph when tasks is set, plus the per-kernel float64 schedules
// RunKernel uses.
func compileRunner[F Float](s *Solver, pool *par.Pool, tasks bool) (*CompiledRunner[F], error) {
	planCompiles.Add(1)
	if pool == nil {
		pool = par.NewPool(1)
	}
	r := &CompiledRunner[F]{s: s, pool: pool, cfg: s.Cfg, rangeCache: map[int][][2]int32{}}
	csr, err := s.M.PackCSR()
	if err != nil {
		return nil, fmt.Errorf("sw: packing mesh adjacency: %w", err)
	}
	r.csr = csr
	if err := checkSolverShapes(s, csr); err != nil {
		return nil, fmt.Errorf("sw: plan shapes: %w", err)
	}
	r.bind()

	roots := stepRoots
	if single[F]() {
		roots = storeRoots
	}
	kept, elided := elideDead(r.stepSpecs(), roots)
	r.elided = elided
	p, err := r.compile(splitStages(kept))
	if err != nil {
		return nil, fmt.Errorf("sw: step plan: %w", err)
	}
	r.stepPlan = p

	r.kernelPlans = make(map[*Kernel]*plan, len(s.kernelOrder))
	for _, k := range s.kernelOrder {
		kp, err := r.compile([][]opSpec{kernelSpecs(k)})
		if err != nil {
			return nil, fmt.Errorf("sw: kernel plan %s: %w", k.Name, err)
		}
		r.kernelPlans[k] = kp
	}
	if tasks {
		if err := r.taskify(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MustNewPlanRunner is NewPlanRunner panicking on error.
func MustNewPlanRunner(s *Solver, pool *par.Pool) *PlanRunner {
	r, err := NewPlanRunner(s, pool)
	if err != nil {
		panic(err)
	}
	return r
}

// Elided returns the Table I ops the liveness pass removed from the step
// plan, sorted.
func (r *CompiledRunner[F]) Elided() []string {
	out := append([]string(nil), r.elided...)
	sort.Strings(out)
	return out
}

// Barriers returns the number of unconditional barriers in one plan step.
func (r *CompiledRunner[F]) Barriers() int { return r.stepPlan.barriers }

// OpIDs returns the step schedule in execution order.
func (r *CompiledRunner[F]) OpIDs() []string {
	out := make([]string, len(r.stepPlan.ops))
	for i, op := range r.stepPlan.ops {
		out[i] = op.id
	}
	return out
}

// single reports whether F is float32 — a plan that owns its working set.
func single[F Float]() bool {
	var z F
	return unsafe.Sizeof(z) == 4
}

// aligned allocates a cache-line-aligned []F (mesh.AlignedFloat64/32).
func aligned[F Float](n int) []F {
	if single[F]() {
		return any(mesh.AlignedFloat32(n)).([]F)
	}
	return any(mesh.AlignedFloat64(n)).([]F)
}

// share returns a itself when F is float64 — the kernels then work in the
// solver's own array — and otherwise a fresh array of the same length.
func share[F Float](a []float64) []F {
	if x, ok := any(a).([]F); ok {
		return x
	}
	return aligned[F](len(a))
}

// round returns a itself when F is float64 and otherwise a copy rounded
// once to F.
func round[F Float](a []float64) []F {
	if x, ok := any(a).([]F); ok {
		return x
	}
	x := aligned[F](len(a))
	for i, v := range a {
		x[i] = F(v)
	}
	return x
}

// bind sets up the working set. At float64 every array is the solver's or
// the mesh's own (no copies, no new memory); at float32 the runner owns its
// state, tendency and diagnostic arrays and a rounded copy of each mesh
// constant.
//
// The hoisted gather weights are packed by the CSR row pointers so the hot
// loops stream them stride-1. wA1[k] is the signed edge length
// s.signCell*DvEdge shared by A1 and A2; wA3 is A3's quadrature weight
// (0.25*Dc)*Dv; wKite is C2's kite fraction; wE is E's signed dual-edge
// length. Each product is formed in float64, reproducing the original
// left-associated prefix, and converted to F once — so at float64,
// multiplying by the remaining factors gives the original rounding exactly.
// (Ordinary checked indexing is fine here — this is compile-time setup, not
// a hot loop; plan_kernels.go must stay free of slice indexing for the
// bounds-check gate.)
func (r *CompiledRunner[F]) bind() {
	s := r.s
	m := s.M
	r.h0, r.hP, r.hN = share[F](s.State.H), share[F](s.Provis.H), share[F](s.next.H)
	r.u0, r.uP, r.uN = share[F](s.State.U), share[F](s.Provis.U), share[F](s.next.U)
	r.tendH, r.tendU, r.b = share[F](s.Tend.H), share[F](s.Tend.U), share[F](s.B)
	d := s.Diag
	r.hEdge, r.ke, r.pvEdge, r.v = share[F](d.HEdge), share[F](d.KE), share[F](d.PVEdge), share[F](d.V)
	r.div, r.d2, r.vort = share[F](d.Divergence), share[F](d.D2fdx2Cell), share[F](d.Vorticity)
	r.hVert, r.pvVert, r.pvCell = share[F](d.HVertex), share[F](d.PVVertex), share[F](d.PVCell)
	r.areaCell, r.dcEdge, r.dvEdge = round[F](m.AreaCell), round[F](m.DcEdge), round[F](m.DvEdge)
	r.areaTri, r.fVertex, r.kite = round[F](m.AreaTriangle), round[F](m.FVertex), round[F](m.KiteAreasOnVertex)
	r.wEdge = round[F](r.csr.EdgeWeights)

	c := r.csr
	nnz := len(c.CellEdges)
	r.wA1, r.wA3, r.wKite = aligned[F](nnz), aligned[F](nnz), aligned[F](nnz)
	for cell := 0; cell < m.NCells; cell++ {
		lo, hi := c.CellRow(cell)
		base := cell * mesh.MaxEdges
		for j := 0; j < hi-lo; j++ {
			e := m.EdgesOnCell[base+j]
			r.wA1[lo+j] = F(s.signCell[base+j] * m.DvEdge[e])
			r.wA3[lo+j] = F(0.25 * m.DcEdge[e] * m.DvEdge[e])
			r.wKite[lo+j] = F(s.kiteOnCell[base+j])
		}
	}
	r.wE = aligned[F](m.NVertices * mesh.VertexDegree)
	for v := 0; v < m.NVertices; v++ {
		base := v * mesh.VertexDegree
		for j := 0; j < mesh.VertexDegree; j++ {
			e := m.EdgesOnVertex[base+j]
			r.wE[base+j] = F(s.signVertex[base+j] * m.DcEdge[e])
		}
	}
}

// checkSolverShapes asserts, once at compile time, that every array the
// compiled kernels (plan_kernels.go) access through unchecked views covers
// its index space (at float32, the runner's arrays take the solver's
// lengths). Together with the CSR pack-time column validation this is the
// safety argument for the bounds-check-free hot loops.
func checkSolverShapes(s *Solver, csr *mesh.CSR) error {
	m := s.M
	nc, ne, nv := m.NCells, m.NEdges, m.NVertices
	check := func(name string, got, want int) error {
		if got < want {
			return fmt.Errorf("%s has %d elements, need %d", name, got, want)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		got  int
		want int
	}{
		{"State.H", len(s.State.H), nc}, {"State.U", len(s.State.U), ne},
		{"Provis.H", len(s.Provis.H), nc}, {"Provis.U", len(s.Provis.U), ne},
		{"next.H", len(s.next.H), nc}, {"next.U", len(s.next.U), ne},
		{"Tend.H", len(s.Tend.H), nc}, {"Tend.U", len(s.Tend.U), ne},
		{"B", len(s.B), nc},
		{"Diag.HEdge", len(s.Diag.HEdge), ne}, {"Diag.KE", len(s.Diag.KE), nc},
		{"Diag.PVEdge", len(s.Diag.PVEdge), ne}, {"Diag.V", len(s.Diag.V), ne},
		{"Diag.Divergence", len(s.Diag.Divergence), nc},
		{"Diag.D2fdx2Cell", len(s.Diag.D2fdx2Cell), nc},
		{"Diag.Vorticity", len(s.Diag.Vorticity), nv},
		{"Diag.HVertex", len(s.Diag.HVertex), nv},
		{"Diag.PVVertex", len(s.Diag.PVVertex), nv},
		{"Diag.PVCell", len(s.Diag.PVCell), nc},
		{"AreaCell", len(m.AreaCell), nc}, {"AreaTriangle", len(m.AreaTriangle), nv},
		{"DcEdge", len(m.DcEdge), ne}, {"DvEdge", len(m.DvEdge), ne},
		{"FVertex", len(m.FVertex), nv},
		{"CellsOnEdge", len(m.CellsOnEdge), 2 * ne},
		{"VerticesOnEdge", len(m.VerticesOnEdge), 2 * ne},
		{"CellsOnVertex", len(m.CellsOnVertex), nv * mesh.VertexDegree},
		{"EdgesOnVertex", len(m.EdgesOnVertex), nv * mesh.VertexDegree},
		{"KiteAreasOnVertex", len(m.KiteAreasOnVertex), nv * mesh.VertexDegree},
		{"CSR.CellPtr", len(csr.CellPtr), nc + 1},
		{"CSR.EdgePtr", len(csr.EdgePtr), ne + 1},
	} {
		if err := check(c.name, c.got, c.want); err != nil {
			return err
		}
	}
	return nil
}

// stepper is the plan path of Solver.Step, implemented by compiled runners
// of either precision.
type stepper interface {
	// tryStep advances s by one step through the compiled plan and reports
	// true, or reports false when the plan path does not apply.
	tryStep(s *Solver) bool
}

// tryStep takes the plan path when the runner was compiled for s and its
// current configuration and no tracers are registered (tracer advection is
// not part of the compiled program). A PostSubstep hook additionally needs
// the program's hook slots: the overlay compiled them into Post/Wait
// exchange ops, and a float32 program has none (its intermediate states
// live in float32 arrays a hook could not see), so those fall back to the
// blocking kernel loop.
func (r *CompiledRunner[F]) tryStep(s *Solver) bool {
	if r.s != s || r.cfg != s.Cfg || len(s.Tracers) > 0 ||
		(s.PostSubstep != nil && (r.ov != nil || single[F]())) {
		return false
	}
	r.step()
	return true
}

// step advances one RK-4 time step through the compiled plan.
func (r *CompiledRunner[F]) step() {
	s := r.s
	name := "rk4_step_plan"
	switch {
	case single[F]() && r.tasks != nil:
		name = "rk4_step_fast32_taskplan"
	case single[F]():
		name = "rk4_step_fast32"
	case r.tasks != nil:
		name = "rk4_step_taskplan"
	}
	span := s.Trace.StartSpan(name)
	s.cur = s.State
	if r.tasks != nil {
		r.tasks.Run()
	} else {
		r.pool.Region(r.stepPlan.exec)
	}
	s.StepCount++
	s.Time += s.Cfg.Dt
	s.stepsCounter.Inc()
	span.End()
}

// RunKernel implements Runner for the non-step paths (Init, tracer steps,
// direct kernel calls): the kernel's original patterns run through a cached
// leveled schedule inside one region. Unknown kernels fall back to the
// per-kernel region of PoolRunner.
func (r *CompiledRunner[F]) RunKernel(k *Kernel) {
	if kp, ok := r.kernelPlans[k]; ok {
		r.pool.Region(kp.exec)
		return
	}
	PoolRunner{Pool: r.pool}.RunKernel(k)
}

// kernelSpecs wraps a kernel's original patterns as opSpecs (no fusion, no
// elision — Table I metadata drives the leveling).
func kernelSpecs(k *Kernel) []opSpec {
	specs := make([]opSpec, len(k.Patterns))
	for i, pt := range k.Patterns {
		specs[i] = opSpec{
			id:     pt.Info.ID,
			n:      pt.N,
			shape:  pt.Info.Shape,
			out:    pt.Info.Out,
			reads:  pt.Info.Reads,
			writes: pt.Info.Writes,
			run:    pt.Run,
		}
	}
	return specs
}

func splitStages(specs []opSpec) [][]opSpec {
	out := make([][]opSpec, 4)
	for _, sp := range specs {
		out[sp.stage] = append(out[sp.stage], sp)
	}
	return out
}

// stepSpecs builds the full four-stage program (before elision) in program
// order. Variable naming follows Table I: h0/u0 is the accepted state, h/u
// the provisional state, h_new/u_new the RK accumulator. Stage 0's tendency
// ops read the accepted state directly (the Provis copy it replaces was
// bitwise identical), stage 3's solve_diagnostics reads the committed state.
//
// A float32 program additionally opens stage 0 with the loads of h0/u0/b
// from their float64 images (h64/u64/b64) and the entry diagnostics they
// feed ("@in" ops), and closes stage 3 with the stores of h0, u0, ke,
// h_vertex and pv_vertex back to the float64 arrays. It carries no hook
// slots (see tryStep).
func (r *CompiledRunner[F]) stepSpecs() []opSpec {
	s := r.s
	m := s.M
	cfg := s.Cfg
	nc, ne, nv := m.NCells, m.NEdges, m.NVertices
	f32 := single[F]()

	var specs []opSpec
	add := func(sp opSpec) { specs = append(specs, sp) }

	// diag appends compute_solve_diagnostics for stage, reading the state
	// named (hn, un) and held in (hs, us).
	diag := func(stage int, suf, hn, un string, hs, us []F) {
		if cfg.HighOrderThickness {
			add(opSpec{id: "C1" + suf, stage: stage, n: nc, shape: pattern.ShapeC, out: pattern.Mass,
				reads: []string{hn}, writes: []string{"d2fdx2_cell"}, run: r.cC1(hs)})
			add(opSpec{id: "D2" + suf, stage: stage, n: ne, shape: pattern.ShapeD, out: pattern.Velocity,
				reads: []string{hn, "d2fdx2_cell"}, writes: []string{"h_edge"}, run: r.cD2(hs)})
		} else {
			add(opSpec{id: "D1" + suf, stage: stage, n: ne, shape: pattern.ShapeD, out: pattern.Velocity,
				reads: []string{hn}, writes: []string{"h_edge"}, run: r.cD1(hs)})
		}
		add(opSpec{id: "E" + suf, stage: stage, n: nv, shape: pattern.ShapeE, out: pattern.Vorticity,
			reads: []string{un}, writes: []string{"vorticity"}, run: r.cE(us)})
		add(opSpec{id: "A2" + suf, stage: stage, n: nc, shape: pattern.ShapeA, out: pattern.Mass,
			reads: []string{un}, writes: []string{"divergence"}, run: r.cA2(us)})
		add(opSpec{id: "A3" + suf, stage: stage, n: nc, shape: pattern.ShapeA, out: pattern.Mass,
			reads: []string{un}, writes: []string{"ke"}, run: r.cA3(us)})
		add(opSpec{id: "F" + suf, stage: stage, n: ne, shape: pattern.ShapeF, out: pattern.Velocity,
			reads: []string{un}, writes: []string{"v"}, run: r.cF(us)})
		add(opSpec{id: "G" + suf, stage: stage, n: nv, shape: pattern.ShapeG, out: pattern.Vorticity,
			reads: []string{hn, "vorticity"}, writes: []string{"h_vertex", "pv_vertex"}, run: r.cG(hs)})
		add(opSpec{id: "C2" + suf, stage: stage, n: nc, shape: pattern.ShapeC, out: pattern.Mass,
			reads: []string{"pv_vertex"}, writes: []string{"pv_cell"}, run: r.cC2()})
		add(opSpec{id: "H2" + suf, stage: stage, n: nc, shape: pattern.ShapeH, out: pattern.Mass,
			reads: []string{"vorticity"}, writes: []string{"vorticity_cell"}, run: s.patH2})
		add(opSpec{id: "H1" + suf, stage: stage, n: ne, shape: pattern.ShapeH, out: pattern.Velocity,
			reads: []string{"pv_vertex"}, writes: []string{"pv_edge"}, run: r.cH1()})
		if cfg.APVM != 0 {
			add(opSpec{id: "B2" + suf, stage: stage, n: ne, shape: pattern.ShapeB, out: pattern.Velocity,
				reads:  []string{"pv_vertex", "pv_cell", un, "v", "pv_edge"},
				writes: []string{"pv_edge"}, run: r.cB2(us)})
		}
	}
	// xfer is a float32 load/store op: pointwise over one index space.
	xfer := func(id string, stage, n int, out pattern.PointType, from, to string, run func(lo, hi int)) {
		add(opSpec{id: id, stage: stage, n: n, shape: pattern.ShapeX, out: out,
			reads: []string{from}, writes: []string{to}, run: run})
	}

	if f32 {
		xfer("load_h@in", 0, nc, pattern.Mass, "h64", "h0", load(r.h0, s.State.H))
		xfer("load_b@in", 0, nc, pattern.Mass, "b64", "b", load(r.b, s.B))
		xfer("load_u@in", 0, ne, pattern.Velocity, "u64", "u0", load(r.u0, s.State.U))
		diag(0, "@in", "h0", "u0", r.h0, r.u0)
	}

	for stage := 0; stage < 4; stage++ {
		suf := fmt.Sprintf("@%d", stage)
		// State names seen by the tendency ops (stage 0 reads the accepted
		// state) and by solve_diagnostics (stage 3 reads the committed state).
		tendH, tendU := "h", "u"
		if stage == 0 {
			tendH, tendU = "h0", "u0"
		}
		diagH, diagU := "h", "u"
		diagHs, diagUs := r.hP, r.uP
		if stage == 3 {
			diagH, diagU = "h0", "u0"
			diagHs, diagUs = r.h0, r.u0
		}

		// --- fused tendency + accumulate (+ provisional or commit) -------
		thID, tuID := "A1+X4"+suf, "B1+X1+X5"+suf
		thReads := []string{tendU, "h_edge"}
		thWrites := []string{"tend_h"}
		tuReads := []string{tendU}
		tuWrites := []string{"tend_u"}
		if !cfg.AdvectionOnly {
			tuReads = append(tuReads, "pv_edge", "h_edge", "ke", tendH, "b")
			if cfg.Viscosity != 0 {
				tuReads = append(tuReads, "divergence", "vorticity")
			}
		}
		switch stage {
		case 0:
			thID, tuID = "A1+X4+X2@0", "B1+X1+X5+X3@0"
			thReads = append(thReads, "h0")
			thWrites = append(thWrites, "h_new", "h")
			tuWrites = append(tuWrites, "u_new", "u")
		case 3:
			thID, tuID = "A1+X4+commit@3", "B1+X1+X5+commit@3"
			thReads = append(thReads, "h_new")
			thWrites = append(thWrites, "h0")
			tuReads = append(tuReads, "u_new")
			tuWrites = append(tuWrites, "u0")
		default:
			thReads = append(thReads, "h_new")
			thWrites = append(thWrites, "h_new")
			tuReads = append(tuReads, "u_new")
			tuWrites = append(tuWrites, "u_new")
		}
		add(opSpec{id: thID, stage: stage, n: nc, shape: pattern.ShapeA, out: pattern.Mass,
			reads: thReads, writes: thWrites, run: r.mkTendH(stage)})
		add(opSpec{id: tuID, stage: stage, n: ne, shape: pattern.ShapeB, out: pattern.Velocity,
			reads: tuReads, writes: tuWrites, run: r.mkTendU(stage)})

		// --- provisional state (stages 1, 2 only; fused elsewhere) -------
		if stage == 1 || stage == 2 {
			add(opSpec{id: "X2" + suf, stage: stage, n: nc, shape: pattern.ShapeX, out: pattern.Mass,
				reads: []string{"h0", "tend_h"}, writes: []string{"h"}, run: r.mkX2(stage)})
			add(opSpec{id: "X3" + suf, stage: stage, n: ne, shape: pattern.ShapeX, out: pattern.Velocity,
				reads: []string{"u0", "tend_u"}, writes: []string{"u"}, run: r.mkX3(stage)})
		}

		// --- PostSubstep hook slot ---------------------------------------
		if !f32 {
			add(opSpec{id: "hook" + suf, stage: stage, hook: true,
				reads: []string{diagH, diagU}, writes: []string{diagH, diagU}})
		}

		diag(stage, suf, diagH, diagU, diagHs, diagUs)

		// --- mpas_reconstruct (stage 3 only; cur == State there) ---------
		if stage == 3 {
			add(opSpec{id: "A4@3", stage: 3, n: nc, shape: pattern.ShapeA, out: pattern.Mass,
				reads:  []string{"u0"},
				writes: []string{"uReconstructX", "uReconstructY", "uReconstructZ"}, run: s.patA4})
			add(opSpec{id: "X6@3", stage: 3, n: nc, shape: pattern.ShapeX, out: pattern.Mass,
				reads:  []string{"uReconstructX", "uReconstructY", "uReconstructZ"},
				writes: []string{"uReconstructZonal", "uReconstructMeridional"}, run: s.patX6})
		}
	}

	if f32 {
		xfer("store_h@3", 3, nc, pattern.Mass, "h0", "h64", store(s.State.H, r.h0))
		xfer("store_ke@3", 3, nc, pattern.Mass, "ke", "ke64", store(s.Diag.KE, r.ke))
		xfer("store_u@3", 3, ne, pattern.Velocity, "u0", "u64", store(s.State.U, r.u0))
		xfer("store_hv@3", 3, nv, pattern.Vorticity, "h_vertex", "h_vertex64", store(s.Diag.HVertex, r.hVert))
		xfer("store_pv@3", 3, nv, pattern.Vorticity, "pv_vertex", "pv_vertex64", store(s.Diag.PVVertex, r.pvVert))
	}
	return specs
}

// liveInVars returns the variables with an upward-exposed read: read by some
// op before any op writes them. Since one step's program runs in a loop,
// these are exactly the values the next step still needs.
func liveInVars(specs []opSpec) map[string]bool {
	written := map[string]bool{}
	liveIn := map[string]bool{}
	for _, sp := range specs {
		for _, v := range sp.reads {
			if !written[v] {
				liveIn[v] = true
			}
		}
		for _, v := range sp.writes {
			written[v] = true
		}
	}
	return liveIn
}

// elideDead removes ops none of whose outputs are consumed: a single
// backward liveness pass with the roots plus the program's own upward-exposed
// reads live at the end. Every op writes its full output range, so a write
// kills the variable. Hook slots are never elided.
func elideDead(specs []opSpec, roots []string) (kept []opSpec, elided []string) {
	live := map[string]bool{}
	for _, v := range roots {
		live[v] = true
	}
	for v := range liveInVars(specs) {
		live[v] = true
	}
	keep := make([]bool, len(specs))
	for i := len(specs) - 1; i >= 0; i-- {
		sp := specs[i]
		alive := sp.hook
		for _, v := range sp.writes {
			if live[v] {
				alive = true
			}
		}
		if !alive {
			continue
		}
		keep[i] = true
		for _, v := range sp.writes {
			delete(live, v)
		}
		for _, v := range sp.reads {
			live[v] = true
		}
	}
	for i, sp := range specs {
		if keep[i] {
			kept = append(kept, sp)
		} else {
			elided = append(elided, sp.id)
		}
	}
	return kept, elided
}

// localEdge reports whether a dependency edge needs no barrier under stable
// static chunking over a shared index space: both endpoints partition the
// same range identically (same n, same output point type), and the endpoint
// that touches foreign elements — the reader of a RAW edge, the earlier
// reader of a WAR edge — is pointwise, so each worker only revisits elements
// of its own chunk. Output dependencies (WAW) are local whenever the
// partitions coincide, since each element is rewritten by the same worker.
func localEdge(a, b opSpec, kind dataflow.DepKind) bool {
	if a.hook || b.hook {
		return false
	}
	if a.n != b.n || a.out != b.out {
		return false
	}
	switch kind {
	case dataflow.RAW:
		return b.shape == pattern.ShapeX
	case dataflow.WAR:
		return a.shape == pattern.ShapeX
	case dataflow.WAW:
		return true
	}
	return false
}

// compile lowers the program (a list of synchronization scopes, each in
// program order) into a verified flat schedule. Within a scope, ops are
// leveled by LevelsBy with the locality predicate and a barrier is placed
// after each level; scope boundaries always get a barrier; the final
// schedule entry drops its barrier because the region join provides it.
func (r *CompiledRunner[F]) compile(scopes [][]opSpec) (*plan, error) {
	p := &plan{s: r.s}
	for _, scope := range scopes {
		if len(scope) == 0 {
			continue
		}
		insts := make([]pattern.Instance, len(scope))
		for i, sp := range scope {
			insts[i] = sp.instance()
		}
		g := dataflow.Build(insts)
		levels := g.LevelsBy(func(e dataflow.Edge) bool {
			return localEdge(scope[e.From], scope[e.To], e.Kind)
		})
		var order []int
		for _, lv := range levels {
			order = append(order, lv...)
		}
		if err := g.ValidateOrder(order); err != nil {
			return nil, err
		}
		base := len(p.specs)
		p.specs = append(p.specs, scope...)
		for _, lv := range levels {
			for k, j := range lv {
				sp := scope[j]
				op := planOp{id: sp.id, stage: sp.stage, run: sp.run, hook: sp.hook,
					barrier: k == len(lv)-1}
				if !sp.hook {
					op.ranges = r.ranges(sp.n)
				}
				p.ops = append(p.ops, op)
				p.order = append(p.order, base+j)
			}
		}
	}
	if n := len(p.ops); n > 0 && !p.ops[n-1].hook {
		p.ops[n-1].barrier = false
	}
	p.barrierAfter = make([]bool, len(p.ops))
	for i, op := range p.ops {
		p.barrierAfter[i] = op.barrier
		if op.barrier && !op.hook {
			p.barriers++
		}
	}
	if err := p.verify(); err != nil {
		return nil, err
	}
	p.exec = p.run
	return p, nil
}

// verify checks barrier sufficiency over the whole program: every non-local
// dependency edge must cross at least one barrier, both with the hook slots
// scheduled (their conditional barriers count) and with them stripped (the
// schedule actually executed when no PostSubstep hook is installed).
func (p *plan) verify() error {
	if err := coverageErr(p.specs, p.order, p.barrierAfter); err != nil {
		return err
	}
	specs, order, barriers := stripHooks(p.specs, p.order, p.barrierAfter)
	return coverageErr(specs, order, barriers)
}

// stripHooks removes hook entries from a (specs, order, barrierAfter)
// schedule — the runtime shape when s.PostSubstep is nil.
func stripHooks(specs []opSpec, order []int, barrierAfter []bool) ([]opSpec, []int, []bool) {
	keepSpec := make([]int, len(specs)) // old spec index -> new, -1 dropped
	var outSpecs []opSpec
	for i, sp := range specs {
		if sp.hook {
			keepSpec[i] = -1
			continue
		}
		keepSpec[i] = len(outSpecs)
		outSpecs = append(outSpecs, sp)
	}
	var outOrder []int
	var outBarriers []bool
	for pos, si := range order {
		if keepSpec[si] < 0 {
			continue
		}
		outOrder = append(outOrder, keepSpec[si])
		outBarriers = append(outBarriers, barrierAfter[pos])
	}
	return outSpecs, outOrder, outBarriers
}

// coverageErr builds the dependency graph over the program-order spec list
// and checks that the execution order respects every edge and that every
// non-local edge has a barrier strictly between its endpoints.
func coverageErr(specs []opSpec, order []int, barrierAfter []bool) error {
	insts := make([]pattern.Instance, len(specs))
	for i, sp := range specs {
		insts[i] = sp.instance()
	}
	g := dataflow.Build(insts)
	if err := g.ValidateOrder(order); err != nil {
		return err
	}
	pos := make([]int, len(specs))
	for pp, si := range order {
		pos[si] = pp
	}
	for _, e := range g.Edges {
		if localEdge(specs[e.From], specs[e.To], e.Kind) {
			continue
		}
		covered := false
		for k := pos[e.From]; k < pos[e.To]; k++ {
			if barrierAfter[k] {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("sw: plan schedule leaves %s dependency %s (%s -> %s) without a barrier",
				e.Kind, e.Variable, specs[e.From].id, specs[e.To].id)
		}
	}
	return nil
}

// ranges returns the per-worker static partition of [0,n), cached per index
// space so every op over the same space uses the identical partition — the
// property the locality predicate relies on. Boundaries are rounded up to
// multiples of 8 elements (one cache line of float64), so adjacent workers
// never write the same line.
func (r *CompiledRunner[F]) ranges(n int) [][2]int32 {
	if rs, ok := r.rangeCache[n]; ok {
		return rs
	}
	rs := alignedRanges(n, r.pool.Workers())
	r.rangeCache[n] = rs
	return rs
}

func alignedRanges(n, nw int) [][2]int32 {
	rs := make([][2]int32, nw)
	q := n / nw
	lo := 0
	for w := 0; w < nw; w++ {
		hi := n
		if w < nw-1 {
			hi = (lo + q + 7) &^ 7
			if hi > n {
				hi = n
			}
		}
		if hi < lo {
			hi = lo
		}
		rs[w] = [2]int32{int32(lo), int32(hi)}
		lo = hi
	}
	return rs
}
