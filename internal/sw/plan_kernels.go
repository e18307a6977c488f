package sw

// This file holds the compiled kernels the execution plan (plan.go)
// dispatches instead of the range kernels in kernels.go: ONE arithmetic body
// per op, instantiated at float64 (the reference plan, bitwise identical to
// kernels.go) and at float32 (the fast mode). Each body keeps the original
// floating-point expression tree — same literals, same left-to-right
// association — only the surrounding scaffolding differs:
//
//   - gathers run over the mesh's CSR image (mesh.PackCSR): row-pointer
//     spans into stride-1 int32 column arrays, in the identical j-order as
//     the strided originals, so reductions reassociate nothing;
//   - all loads and stores go through the unchecked views of unchecked.go —
//     the compiler cannot eliminate bounds checks on data-dependent gather
//     subscripts, so they are removed by construction instead, with safety
//     established by CSR pack-time index validation plus the array-shape
//     assertions at plan compile time (plan.go checkSolverShapes);
//   - products of per-slot mesh constants (edge sign × edge length) are
//     hoisted into weight tables packed by the same row pointers (built in
//     plan.go bind, which may use ordinary checked indexing);
//   - every array comes from the runner's working set (plan.go bind): at
//     float64 the solver's own arrays, at float32 the runner's rounded
//     copies; scalar coefficients are held by the solver in float64 and
//     converted to F once, at compile time;
//   - the RK substep/accumulate updates (X2..X5) are fused into the tendency
//     loops where the data flow proves the combined loop races with nothing.
//
// THIS FILE MUST STAY FREE OF SLICE INDEXING: bce_test.go recompiles the
// package with -d=ssa/check_bce and fails on any bounds check attributed
// here (scripts/ci.sh runs the same gate). Setup code that wants ordinary
// indexing belongs in plan.go.
//
// Every constructor below is marked //go:noinline. When the inliner copies a
// closure-returning function into its caller (stepSpecs), the copied closure
// body is generated after the inlining pass and the view accessors inside it
// stay as real calls — turning every load in the hot loops into a function
// call (~4x per-kernel slowdown, observed). Keeping the constructors out of
// line makes their closures compile through the normal path, where at/set
// inline to single load/store instructions. bce_test.go also fails if a
// closure of either instantiation contains a CALL.
//
// The views are built at the top of each closure, not captured from the
// constructor. Every inlined view access in a generic body loads its
// sub-dictionary from the closure's dictionary, and the dead load leaves a
// nil check behind — once per loop iteration when the first access sits in
// the loop. Building the views at closure entry puts that check in front of
// the loops, where it dominates and removes all the others.
//
// Equivalence is pinned by TestPlanBitwise across the configuration space
// (float64) and by internal/conform's fast32 band (float32).

// mkTendH compiles the fused thickness-tendency op for one RK stage:
// A1 (flux divergence), X4 (accumulate), and at stage 0 additionally X2 (the
// provisional update, legal there because stage 0 reads the accepted state)
// or at stage 3 the commit into the accepted h. The stage-0 form also
// absorbs the next.CopyFrom(State) initialization: hn = h0 + b*t instead of
// copy-then-add.
//
//go:noinline
func (r *CompiledRunner[F]) mkTendH(stage int) func(lo, hi int) {
	a, b := F(r.s.rkA[stage&3]), F(r.s.rkB[stage&3])
	us := r.uP
	if stage == 0 {
		us = r.u0
	}
	return func(lo, hi int) {
		cp := vw(r.csr.CellPtr)
		ce := vw(r.csr.CellEdges)
		w := vw(r.wA1)
		area := vw(r.areaCell)
		u := vw(us)
		he := vw(r.hEdge)
		th := vw(r.tendH)
		hn := vw(r.hN)
		h0 := vw(r.h0)
		hp := vw(r.hP)
		for c := lo; c < hi; c++ {
			ps, pe := int(cp.at(c)), int(cp.at(c+1))
			var acc F
			for j := ps; j < pe; j++ {
				e := int(ce.at(j))
				acc += w.at(j) * he.at(e) * u.at(e)
			}
			t := -acc / area.at(c)
			th.set(c, t)
			switch stage {
			case 0:
				hn.set(c, h0.at(c)+b*t)
				hp.set(c, h0.at(c)+a*t)
			case 3:
				h0.set(c, hn.at(c)+b*t)
			default:
				hn.set(c, hn.at(c)+b*t)
			}
		}
	}
}

// mkTendU compiles the fused momentum-tendency op for one RK stage: B1 (or
// its advection-only zeroing), the optional viscosity and Rayleigh-friction
// passes (X1), X5 (accumulate), and at stage 0 additionally X3 or at stage 3
// the commit into the accepted u. Sub-passes run in the original pattern
// order over the worker's own range, so fusion changes no result.
//
//go:noinline
func (r *CompiledRunner[F]) mkTendU(stage int) func(lo, hi int) {
	cfg := r.cfg
	g := F(cfg.Gravity)
	nu := F(cfg.Viscosity)
	rf := F(cfg.RayleighFriction)
	advOnly := cfg.AdvectionOnly
	a, bw := F(r.s.rkA[stage&3]), F(r.s.rkB[stage&3])
	us, hs := r.uP, r.hP
	if stage == 0 {
		us, hs = r.u0, r.h0
	}
	return func(lo, hi int) {
		u := vw(us)
		tu := vw(r.tendU)
		if advOnly {
			for e := lo; e < hi; e++ {
				tu.set(e, 0)
			}
		} else {
			ep := vw(r.csr.EdgePtr)
			eoe := vw(r.csr.EdgeEdges)
			wts := vw(r.wEdge)
			coe := vw(r.s.M.CellsOnEdge)
			dc := vw(r.dcEdge)
			h := vw(hs)
			he := vw(r.hEdge)
			ke := vw(r.ke)
			pve := vw(r.pvEdge)
			b := vw(r.b)
			for e := lo; e < hi; e++ {
				ps, pend := int(ep.at(e)), int(ep.at(e+1))
				pe := pve.at(e)
				var q F
				for j := ps; j < pend; j++ {
					k := int(eoe.at(j))
					workPV := 0.5 * (pe + pve.at(k))
					q += wts.at(j) * u.at(k) * he.at(k) * workPV
				}
				c1 := int(coe.at(2 * e))
				c2 := int(coe.at(2*e + 1))
				grad := (ke.at(c2) - ke.at(c1) + g*(h.at(c2)+b.at(c2)-h.at(c1)-b.at(c1))) / dc.at(e)
				tu.set(e, q-grad)
			}
			if nu != 0 {
				voe := vw(r.s.M.VerticesOnEdge)
				dv := vw(r.dvEdge)
				div := vw(r.div)
				vort := vw(r.vort)
				for e := lo; e < hi; e++ {
					c1 := int(coe.at(2 * e))
					c2 := int(coe.at(2*e + 1))
					v1 := int(voe.at(2 * e))
					v2 := int(voe.at(2*e + 1))
					tu.set(e, tu.at(e)+nu*((div.at(c2)-div.at(c1))/dc.at(e)-(vort.at(v2)-vort.at(v1))/dv.at(e)))
				}
			}
		}
		if rf != 0 {
			for e := lo; e < hi; e++ {
				tu.set(e, tu.at(e)-rf*u.at(e))
			}
		}
		un := vw(r.uN)
		switch stage {
		case 0:
			u0 := vw(r.u0)
			up := vw(r.uP)
			for e := lo; e < hi; e++ {
				t := tu.at(e)
				un.set(e, u0.at(e)+bw*t)
				up.set(e, u0.at(e)+a*t)
			}
		case 3:
			u0 := vw(r.u0)
			for e := lo; e < hi; e++ {
				u0.set(e, un.at(e)+bw*tu.at(e))
			}
		default:
			for e := lo; e < hi; e++ {
				un.set(e, un.at(e)+bw*tu.at(e))
			}
		}
	}
}

// mkX2 / mkX3 compile the provisional-state updates for stages 1 and 2 (at
// stages 0 and 3 they are fused into the tendency ops). Unlike patX2/patX3
// they bind the RK coefficient at compile time instead of reading s.stage.
//
//go:noinline
func (r *CompiledRunner[F]) mkX2(stage int) func(lo, hi int) {
	a := F(r.s.rkA[stage&3])
	return func(lo, hi int) {
		h0 := vw(r.h0)
		th := vw(r.tendH)
		hp := vw(r.hP)
		for c := lo; c < hi; c++ {
			hp.set(c, h0.at(c)+a*th.at(c))
		}
	}
}

//go:noinline
func (r *CompiledRunner[F]) mkX3(stage int) func(lo, hi int) {
	a := F(r.s.rkA[stage&3])
	return func(lo, hi int) {
		u0 := vw(r.u0)
		tu := vw(r.tendU)
		up := vw(r.uP)
		for e := lo; e < hi; e++ {
			up.set(e, u0.at(e)+a*tu.at(e))
		}
	}
}

// --- compiled compute_solve_diagnostics ---------------------------------------
// Each takes the state arrays the stage reads (the provisional state for
// stages 0..2, the accepted state at stage 3 and at the float32 step entry).

//go:noinline
func (r *CompiledRunner[F]) cC1(hs []F) func(lo, hi int) {
	return func(lo, hi int) {
		cp := vw(r.csr.CellPtr)
		ce := vw(r.csr.CellEdges)
		cc := vw(r.csr.CellCells)
		dc := vw(r.dcEdge)
		h := vw(hs)
		d2 := vw(r.d2)
		for c := lo; c < hi; c++ {
			ps, pe := int(cp.at(c)), int(cp.at(c+1))
			var acc F
			for j := ps; j < pe; j++ {
				nb := int(cc.at(j))
				d := dc.at(int(ce.at(j)))
				acc += 2 * (h.at(nb) - h.at(c)) / (d * d)
			}
			d2.set(c, acc/F(pe-ps))
		}
	}
}

//go:noinline
func (r *CompiledRunner[F]) cD1(hs []F) func(lo, hi int) {
	return func(lo, hi int) {
		coe := vw(r.s.M.CellsOnEdge)
		h := vw(hs)
		he := vw(r.hEdge)
		for e := lo; e < hi; e++ {
			c1 := int(coe.at(2 * e))
			c2 := int(coe.at(2*e + 1))
			he.set(e, 0.5*(h.at(c1)+h.at(c2)))
		}
	}
}

//go:noinline
func (r *CompiledRunner[F]) cD2(hs []F) func(lo, hi int) {
	return func(lo, hi int) {
		coe := vw(r.s.M.CellsOnEdge)
		dcv := vw(r.dcEdge)
		h := vw(hs)
		d2 := vw(r.d2)
		he := vw(r.hEdge)
		for e := lo; e < hi; e++ {
			c1 := int(coe.at(2 * e))
			c2 := int(coe.at(2*e + 1))
			dc := dcv.at(e)
			he.set(e, 0.5*(h.at(c1)+h.at(c2))-dc*dc/12*0.5*(d2.at(c1)+d2.at(c2)))
		}
	}
}

//go:noinline
func (r *CompiledRunner[F]) cE(us []F) func(lo, hi int) {
	return func(lo, hi int) {
		w := vw(r.wE)
		eov := vw(r.s.M.EdgesOnVertex)
		at := vw(r.areaTri)
		u := vw(us)
		vort := vw(r.vort)
		for v := lo; v < hi; v++ {
			base := v * 3 // mesh.VertexDegree
			var circ F
			for j := base; j < base+3; j++ {
				circ += w.at(j) * u.at(int(eov.at(j)))
			}
			vort.set(v, circ/at.at(v))
		}
	}
}

//go:noinline
func (r *CompiledRunner[F]) cA2(us []F) func(lo, hi int) {
	return func(lo, hi int) {
		cp := vw(r.csr.CellPtr)
		ce := vw(r.csr.CellEdges)
		w := vw(r.wA1)
		area := vw(r.areaCell)
		u := vw(us)
		div := vw(r.div)
		for c := lo; c < hi; c++ {
			ps, pe := int(cp.at(c)), int(cp.at(c+1))
			var acc F
			for j := ps; j < pe; j++ {
				acc += w.at(j) * u.at(int(ce.at(j)))
			}
			div.set(c, acc/area.at(c))
		}
	}
}

//go:noinline
func (r *CompiledRunner[F]) cA3(us []F) func(lo, hi int) {
	return func(lo, hi int) {
		cp := vw(r.csr.CellPtr)
		ce := vw(r.csr.CellEdges)
		w := vw(r.wA3)
		area := vw(r.areaCell)
		u := vw(us)
		ke := vw(r.ke)
		for c := lo; c < hi; c++ {
			ps, pe := int(cp.at(c)), int(cp.at(c+1))
			var acc F
			for j := ps; j < pe; j++ {
				ue := u.at(int(ce.at(j)))
				acc += w.at(j) * ue * ue
			}
			ke.set(c, acc/area.at(c))
		}
	}
}

//go:noinline
func (r *CompiledRunner[F]) cF(us []F) func(lo, hi int) {
	return func(lo, hi int) {
		ep := vw(r.csr.EdgePtr)
		eoe := vw(r.csr.EdgeEdges)
		wts := vw(r.wEdge)
		u := vw(us)
		v := vw(r.v)
		for e := lo; e < hi; e++ {
			ps, pe := int(ep.at(e)), int(ep.at(e+1))
			var acc F
			for j := ps; j < pe; j++ {
				acc += wts.at(j) * u.at(int(eoe.at(j)))
			}
			v.set(e, acc)
		}
	}
}

//go:noinline
func (r *CompiledRunner[F]) cG(hs []F) func(lo, hi int) {
	return func(lo, hi int) {
		kv := vw(r.kite)
		cv := vw(r.s.M.CellsOnVertex)
		at := vw(r.areaTri)
		fv := vw(r.fVertex)
		h := vw(hs)
		hvd := vw(r.hVert)
		pv := vw(r.pvVert)
		vort := vw(r.vort)
		for v := lo; v < hi; v++ {
			base := v * 3 // mesh.VertexDegree
			var acc F
			for j := base; j < base+3; j++ {
				acc += kv.at(j) * h.at(int(cv.at(j)))
			}
			hv := acc / at.at(v)
			hvd.set(v, hv)
			pv.set(v, (fv.at(v)+vort.at(v))/hv)
		}
	}
}

//go:noinline
func (r *CompiledRunner[F]) cC2() func(lo, hi int) {
	return func(lo, hi int) {
		cp := vw(r.csr.CellPtr)
		cvt := vw(r.csr.CellVerts)
		w := vw(r.wKite)
		pvc := vw(r.pvCell)
		pvv := vw(r.pvVert)
		for c := lo; c < hi; c++ {
			ps, pe := int(cp.at(c)), int(cp.at(c+1))
			var acc F
			for j := ps; j < pe; j++ {
				acc += w.at(j) * pvv.at(int(cvt.at(j)))
			}
			pvc.set(c, acc)
		}
	}
}

// cH1 compiles pattern H1 (edge <- 2 vertices): potential vorticity at
// edges. It reads only diagnostics, so no state binding is needed; the
// compiled form exists because H1 runs every stage on the hot path.
//
//go:noinline
func (r *CompiledRunner[F]) cH1() func(lo, hi int) {
	return func(lo, hi int) {
		voe := vw(r.s.M.VerticesOnEdge)
		pve := vw(r.pvEdge)
		pvv := vw(r.pvVert)
		for e := lo; e < hi; e++ {
			v1 := int(voe.at(2 * e))
			v2 := int(voe.at(2*e + 1))
			pve.set(e, 0.5*(pvv.at(v1)+pvv.at(v2)))
		}
	}
}

//go:noinline
func (r *CompiledRunner[F]) cB2(us []F) func(lo, hi int) {
	coef := F(r.cfg.APVM * r.cfg.Dt)
	return func(lo, hi int) {
		voe := vw(r.s.M.VerticesOnEdge)
		coe := vw(r.s.M.CellsOnEdge)
		dc := vw(r.dcEdge)
		dv := vw(r.dvEdge)
		pve := vw(r.pvEdge)
		pvv := vw(r.pvVert)
		pvc := vw(r.pvCell)
		u := vw(us)
		v := vw(r.v)
		for e := lo; e < hi; e++ {
			v1 := int(voe.at(2 * e))
			v2 := int(voe.at(2*e + 1))
			c1 := int(coe.at(2 * e))
			c2 := int(coe.at(2*e + 1))
			gradPVt := (pvv.at(v2) - pvv.at(v1)) / dv.at(e)
			gradPVn := (pvc.at(c2) - pvc.at(c1)) / dc.at(e)
			pve.set(e, pve.at(e)-coef*(v.at(e)*gradPVt+u.at(e)*gradPVn))
		}
	}
}

// --- float32 step entry and exit ----------------------------------------------
// A float32 plan owns its working set, so its program starts by loading the
// accepted state (and the bottom topography) from the solver's float64
// arrays and ends by storing the accepted state and the invariant
// diagnostics back. The float64 -> F load rounds once; the F -> float64
// store is exact.

// load converts src into dst over [lo,hi).
//
//go:noinline
func load[F Float](dst []F, src []float64) func(lo, hi int) {
	return func(lo, hi int) {
		d := vw(dst)
		s := vw(src)
		for i := lo; i < hi; i++ {
			d.set(i, F(s.at(i)))
		}
	}
}

// store widens src into dst over [lo,hi).
//
//go:noinline
func store[F Float](dst []float64, src []F) func(lo, hi int) {
	return func(lo, hi int) {
		d := vw(dst)
		s := vw(src)
		for i := lo; i < hi; i++ {
			d.set(i, float64(s.at(i)))
		}
	}
}
