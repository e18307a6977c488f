package sw

import "repro/internal/pattern"

// This file is the RK-4 time-stepping driver — the literal transcription of
// Algorithm 1 of the paper into kernel invocations. Which processor(s)
// execute the kernels is entirely the Runner's business.

// stageSpanNames are fixed so tracing a stage never formats a string.
var stageSpanNames = [4]string{"rk4_stage_0", "rk4_stage_1", "rk4_stage_2", "rk4_stage_3"}

// Init computes the diagnostics and reconstruction for the current state.
// Call once after setting initial conditions, before the first Step.
func (s *Solver) Init() {
	s.cur = s.State
	s.stageSpan = s.Trace.StartSpan("init")
	s.runKernel(pattern.KernelSolveDiagnostics)
	s.runKernel(pattern.KernelReconstruct)
	s.stageSpan.End()
	s.stageSpan = nil
}

// Step advances the model by one RK-4 time step (Algorithm 1). When a
// compiled runner (CompiledRunner, either precision) built for this solver
// and this configuration is attached and no tracers are registered, the step
// executes through its compiled schedule — one parallel region or task graph
// for the whole step — instead of the kernel-by-kernel loop below (see
// CompiledRunner.tryStep for the exact conditions).
func (s *Solver) Step() {
	if st, ok := s.Runner.(stepper); ok && st.tryStep(s) {
		return
	}
	step := s.Trace.StartSpan("rk4_step")
	s.Provis.CopyFrom(s.State)
	s.next.CopyFrom(s.State)
	s.tracerStepBegin()
	s.cur = s.Provis
	for s.stage = 0; s.stage < 4; s.stage++ {
		s.stageSpan = step.StartChild(stageSpanNames[s.stage])
		s.runKernel(pattern.KernelComputeTend)
		if len(s.Tracers) > 0 {
			// Tracer flux divergence uses the same provisional state and
			// edge thickness the thickness tendency just consumed.
			s.tracerTend()
		}
		s.runKernel(pattern.KernelEnforceBoundaryEdge)
		if s.stage < 3 {
			s.runKernel(pattern.KernelNextSubstepState)
			s.tracerSubstep()
			if s.PostSubstep != nil {
				s.PostSubstep(s.stage, s.Provis)
			}
			s.runKernel(pattern.KernelSolveDiagnostics)
			s.runKernel(pattern.KernelAccumulativeUpdate)
		} else {
			s.runKernel(pattern.KernelAccumulativeUpdate)
			s.tracerSubstep()
			s.State.CopyFrom(s.next)
			s.tracerStepEnd()
			s.cur = s.State
			if s.PostSubstep != nil {
				s.PostSubstep(s.stage, s.State)
			}
			s.runKernel(pattern.KernelSolveDiagnostics)
			s.runKernel(pattern.KernelReconstruct)
		}
		s.stageSpan.End()
	}
	s.stageSpan = nil
	s.StepCount++
	s.Time += s.Cfg.Dt
	s.stepsCounter.Inc()
	step.End()
}

// Run advances n steps.
func (s *Solver) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

func (s *Solver) runKernel(name string) {
	sp := s.stageSpan.StartChild(name)
	tm := s.kernelTimers[name]
	ctx := tm.Start()
	s.Runner.RunKernel(s.kernels[name])
	ctx.Stop()
	sp.End()
}
