package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	mpas "repro"
	"repro/internal/conform"
	"repro/internal/ladder"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/sw"
	"repro/internal/telemetry"
)

// checkSteps is the step count (warm-up included) after which every mode's
// state is compared with the serial run's.
const checkSteps = 3

// modeShare is each mode's share of the stepping budget: the serial step
// costs about three plan steps, so it gets more time for a similar count.
var modeShare = map[string]float64{
	"serial": 0.3, "plan": 0.175, "taskplan": 0.175, "taskplan_reorder": 0.175, "fast32": 0.175,
}

func modeOptions(mode string, m *mesh.Mesh) mpas.Options {
	o := mpas.Options{Mesh: m, TestCase: mpas.TC5, Workers: nproc()}
	switch mode {
	case "serial":
		o.Mode = mpas.Serial
	case "plan":
		o.Mode = mpas.Plan
	case "taskplan":
		o.Mode = mpas.TaskPlan
	case "taskplan_reorder":
		o.Mode, o.Reorder = mpas.TaskPlan, true
	case "fast32":
		o.Mode, o.Precision = mpas.Plan, "float32"
	}
	return o
}

// modeOrder is the seeded order in which the modes run: the base order on
// even seeds, reversed on odd ones, so consecutive seeds alternate which
// side of every compared pair of modes goes first.
func modeOrder(seed int64) []string {
	out := append([]string(nil), modeNames...)
	if seed%2 != 0 {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// perturbH applies the seeded initial-condition jitter: a smooth relative
// thickness perturbation that is a function of cell position only, so it is
// identical for every mode and every cell numbering.
func perturbH(mod *mpas.Model, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	k1, k2, phase := 1+rng.Float64()*4, 1+rng.Float64()*4, rng.Float64()*2*math.Pi
	m, h := mod.Mesh, mod.Solver.State.H
	for c := range h {
		h[c] *= 1 + 1e-6*math.Sin(k1*m.LatCell[c]+k2*m.LonCell[c]+phase)
	}
	mod.Solver.Init()
}

// canonicalState copies a model's prognostic state in canonical numbering.
func canonicalState(mod *mpas.Model) (h, u []float64) {
	st := mod.Solver.State
	h = append([]float64(nil), st.H...)
	u = append([]float64(nil), st.U...)
	if ren := mod.Reorder; ren != nil {
		ren.CellToCanonical(h, st.H)
		ren.EdgeToCanonical(u, st.U)
	}
	return h, u
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// modeRun is one mode's measurements.
type modeRun struct {
	steps       []float64 // seconds of each timed step
	untraced    []float64 // traced run: the steps timed without a span
	h, u        []float64 // canonical state after checkSteps steps
	setup       time.Duration
	kernelSteps map[string]float64 // traced: seconds per step by kernel
}

// stepModes builds one TC5 model per mode on m in seeded order, times its
// steps for the mode's share of budget, and checks every mode's state after
// checkSteps steps against the serial run: bitwise for plan, taskplan and
// taskplan_reorder (after mapping back to canonical numbering), within the
// documented float32 band for fast32. Models are built one at a time, so a
// level-8 mesh never holds more than one model.
func stepModes(r *run, m *mesh.Mesh, budget time.Duration) (map[string]*modeRun, error) {
	out := map[string]*modeRun{}
	for _, mode := range modeOrder(r.seed) {
		mr, err := stepMode(r, m, mode, time.Duration(modeShare[mode]*float64(budget)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode, err)
		}
		out[mode] = mr
		runtime.GC()
		debug.FreeOSMemory()
	}
	ref := out["serial"]
	for _, mode := range modeNames[1:] {
		mr := out[mode]
		if mode == "fast32" {
			tol := conform.Tolerance{MaxULP: 4, RelLInf: conform.Fast32Band * float64(checkSteps+1)}
			d := conform.CompareStates(ref.h, ref.u, mr.h, mr.u)
			r.tally.check(tol.Accepts(d), "fast32 outside the float32 band after %d steps: %+v", checkSteps, d)
			continue
		}
		r.tally.check(bitwiseEqual(ref.h, mr.h) && bitwiseEqual(ref.u, mr.u),
			"%s state differs bitwise from serial after %d steps", mode, checkSteps)
	}
	for _, mr := range out {
		mr.h, mr.u = nil, nil
	}
	return out, nil
}

func stepMode(r *run, m *mesh.Mesh, mode string, budget time.Duration) (*modeRun, error) {
	sp := r.span("mode." + mode)
	defer sp.End()
	mr := &modeRun{}
	t0 := time.Now()
	bsp := sp.StartChild("mpas.New")
	mod, err := mpas.New(modeOptions(mode, m))
	bsp.End()
	if err != nil {
		return nil, err
	}
	defer mod.Close()
	perturbH(mod, r.seed)
	var reg *telemetry.Registry
	if r.traced && mode == "taskplan" {
		reg = telemetry.NewRegistry()
		mod.EnableTelemetry(nil, reg)
	}
	wsp := sp.StartChild("Model.Step warm-up")
	mod.Step()
	wsp.End()
	mr.setup = time.Since(t0)

	steals0, idle0 := taskStats(reg)
	deadline := time.Now().Add(budget)
	for i := 1; i < checkSteps || time.Now().Before(deadline); i++ {
		// A traced run alternates spanned and bare steps; their ratio is the
		// tracing overhead.
		spanned := !r.traced || i%2 == 1
		var ssp *telemetry.Span
		if spanned {
			ssp = sp.StartChild("Model.Step")
		}
		ts := time.Now()
		mod.Step()
		d := time.Since(ts).Seconds()
		ssp.End()
		if spanned {
			mr.steps = append(mr.steps, d)
		} else {
			mr.untraced = append(mr.untraced, d)
		}
		if i+1 == checkSteps {
			mr.h, mr.u = canonicalState(mod)
		}
	}
	r.sample("sw.step_s."+mode, mr.steps...)
	if reg != nil {
		steals1, idle1 := taskStats(reg)
		n := float64(len(mr.steps) + len(mr.untraced))
		r.set("par.steals_per_step", (steals1-steals0)/n)
		r.set("par.idle_s_per_step", (idle1-idle0)/n)
	}
	if r.traced {
		if err := profileMode(r, mod, mode, mr, sp); err != nil {
			return nil, err
		}
	}
	return mr, nil
}

// taskStats reads the task scheduler's steal count and summed worker idle
// seconds from a registry (zeros for nil).
func taskStats(reg *telemetry.Registry) (steals, idle float64) {
	if reg == nil {
		return 0, 0
	}
	steals = float64(reg.Counter("par_taskplan_steals_total").Value())
	for w := 0; w < nproc(); w++ {
		idle += reg.Timer(fmt.Sprintf("par_taskplan_w%d_idle_seconds", w)).Total().Seconds()
	}
	return steals, idle
}

// kernelTimer is an sw.Runner that times every kernel it forwards. Putting
// it in front of a PlanRunner makes the solver step kernel by kernel through
// the runner's compiled per-kernel plans instead of the fused step schedule.
type kernelTimer struct {
	inner sw.Runner
	total map[string]time.Duration
	sp    *telemetry.Span
}

func (k *kernelTimer) RunKernel(kn *sw.Kernel) {
	sp := k.sp.StartChild("sw.kernel." + kn.Name)
	t0 := time.Now()
	k.inner.RunKernel(kn)
	k.total[kn.Name] += time.Since(t0)
	sp.End()
}

// kernelSplit steps mod kernel by kernel through a kernelTimer for about
// budget (at least one step) and returns seconds per step by kernel name.
func kernelSplit(mod *mpas.Model, budget time.Duration, sp *telemetry.Span) map[string]float64 {
	s := mod.Solver
	kt := &kernelTimer{inner: s.Runner, total: map[string]time.Duration{}, sp: sp}
	s.Runner = kt
	defer func() { s.Runner = kt.inner }()
	deadline := time.Now().Add(budget)
	n := 0
	for n == 0 || time.Now().Before(deadline) {
		mod.Step()
		n++
	}
	out := map[string]float64{}
	for name, d := range kt.total {
		out[name] = d.Seconds() / float64(n)
	}
	return out
}

// profileMode adds the traced run's per-layer measurements for one mode:
// the per-kernel split (serial and plan), the plan compile times and the
// static plan counts.
func profileMode(r *run, mod *mpas.Model, mode string, mr *modeRun, sp *telemetry.Span) error {
	ksplit := r.budget(0.05)
	switch mode {
	case "serial":
		mr.kernelSteps = kernelSplit(mod, ksplit, sp.StartChild("kernel split serial"))
	case "plan":
		mr.kernelSteps = kernelSplit(mod, ksplit, sp.StartChild("kernel split plan"))
	}
	pool := par.NewPool(nproc())
	defer pool.Close()
	compile := func(name string, f func() error) error {
		csp := sp.StartChild(name)
		t0 := time.Now()
		err := f()
		r.set("sw.compile_"+name+"_s", time.Since(t0).Seconds())
		csp.End()
		return err
	}
	switch mode {
	case "plan":
		return compile("plan", func() error {
			pr, err := sw.NewPlanRunner(mod.Solver, pool)
			if err == nil {
				r.set("sw.plan_ops", float64(len(pr.OpIDs())))
				r.set("sw.elided_ops", float64(len(pr.Elided())))
				r.set("par.barriers_per_step", float64(pr.Barriers()))
			}
			return err
		})
	case "taskplan":
		return compile("taskplan", func() error {
			pr, err := sw.NewTaskPlanRunner(mod.Solver, pool)
			if err == nil {
				r.set("par.tasks", float64(pr.TaskGraph().Tasks()))
				r.set("par.edges", float64(pr.TaskGraph().Edges()))
			}
			return err
		})
	case "fast32":
		return compile("fast32", func() error {
			_, err := sw.NewFast32Runner(mod.Solver, pool)
			return err
		})
	}
	return nil
}

// kernelModeledBytes is the Table-I streaming traffic of each kernel over
// one step (the four RK stages), from perfmodel — a computed figure, not a
// measured one.
func kernelModeledBytes(mc perfmodel.MeshCounts) map[string]float64 {
	out := map[string]float64{}
	perKernel := map[string]float64{}
	for _, pw := range perfmodel.Workload(mc, false) {
		perKernel[pw.Inst.Kernel] += float64(pw.N) * pw.Bytes
	}
	for stage := 0; stage < 4; stage++ {
		for _, k := range perfmodel.StageKernels(stage) {
			out[k] += perKernel[k]
		}
	}
	return out
}

// reportModes turns per-mode measurements into metrics: the per-mode step
// medians (sw.step_s.*), modeled bandwidths, and — in a traced run — the
// per-kernel split, fusion saving and tracing overhead.
func reportModes(r *run, m *mesh.Mesh, modes map[string]*modeRun) {
	mc := perfmodel.MeshCounts{Cells: m.NCells, Edges: m.NEdges, Vertices: m.NVertices}
	stepBytes := ladder.ModeledBytesPerStep(mc)
	med := map[string]float64{}
	for mode, mr := range modes {
		med[mode] = median(mr.steps)
		r.set("sw.step_s."+mode, med[mode])
	}
	for _, mode := range []string{"plan", "taskplan", "fast32"} {
		r.set("sw.step_gbps."+mode, stepBytes/med[mode]/1e9)
	}
	r.note("modeled traffic per step (Table-I model, computed): %.2f GB; every *_gbps figure is that model divided by measured time", stepBytes/1e9)
	if !r.traced {
		return
	}
	kb := kernelModeledBytes(mc)
	sumPlan := 0.0
	for name, sec := range modes["plan"].kernelSteps {
		sumPlan += sec
		r.set("sw.kernel."+name+".plan_s", sec)
		r.set("sw.kernel."+name+".plan_gbps", kb[name]/sec/1e9)
	}
	for name, sec := range modes["serial"].kernelSteps {
		r.set("sw.kernel."+name+".serial_s", sec)
	}
	r.set("sw.fusion_saving_s", sumPlan-med["plan"])
	var ratios []float64
	for _, mr := range modes {
		if len(mr.untraced) > 0 {
			ratios = append(ratios, median(mr.steps)/median(mr.untraced))
		}
	}
	r.set("telemetry.overhead", geomean(ratios)-1)
}

// profileMesh times the mesh layer's set-up calls on m (traced runs).
func profileMesh(r *run, m *mesh.Mesh) error {
	sp := r.span("mesh layer")
	defer sp.End()
	csp := sp.StartChild("PackCSR")
	t0 := time.Now()
	csr, err := m.PackCSR()
	r.set("mesh.pack_csr_s", time.Since(t0).Seconds())
	csp.End()
	if err != nil {
		return err
	}
	r.note("CSR adjacency: %.0f MB; last-level cache: %.1f MB", float64(csr.Bytes())/(1<<20), float64(llcBytes())/(1<<20))
	rsp := sp.StartChild("ComputeReorder+Apply")
	t0 = time.Now()
	rm, err := mesh.ComputeReorder(m).Apply(m)
	r.set("mesh.reorder_s", time.Since(t0).Seconds())
	rsp.End()
	if err != nil {
		return err
	}
	r.set("mesh.neighbor_dist_before", m.NeighborLocality().Mean)
	r.set("mesh.neighbor_dist_after", rm.NeighborLocality().Mean)
	return nil
}

// regionBarrierUS times an empty pool.Region holding one team barrier at
// nproc workers: the median over batches, in microseconds per region.
func regionBarrierUS(r *run) float64 {
	sp := r.span("par.Region barrier")
	defer sp.End()
	pool := par.NewPool(nproc())
	defer pool.Close()
	body := func(t *par.Team) { t.Barrier() }
	const batch = 2000
	var per []float64
	deadline := r.deadline(0.02)
	for len(per) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			pool.Region(body)
		}
		per = append(per, time.Since(t0).Seconds()*1e6/batch)
	}
	r.sample("par.region_barrier_us", per...)
	return median(per)
}

// profileInProcess is the traced run's in-process layer profile on a
// workload's own mesh: the mesh set-up calls, every step mode with its
// kernel split and compile, and the runtime's region barrier.
func profileInProcess(r *run, m *mesh.Mesh, budget time.Duration) error {
	if err := profileMesh(r, m); err != nil {
		return err
	}
	modes, err := stepModes(r, m, budget)
	if err != nil {
		return err
	}
	reportModes(r, m, modes)
	r.set("par.region_barrier_us", regionBarrierUS(r))
	return nil
}
