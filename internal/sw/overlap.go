package sw

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/pattern"
)

// This file extends the compiled plan with split interior/halo scheduling —
// the comm/compute overlap of a distributed rank. The blocking rank step
// (the exchange in the PostSubstep hook slot) serializes exchange and
// compute:
//
//	tendency -> [exchange h,u] -> diagnostics
//
// The overlaid schedule instead posts the exchange and computes the interior
// of every halo-consuming diagnostic while the messages are in flight:
//
//	tendency -> Post -> diagnostics[interior] -> Wait+unpack -> diagnostics[boundary]
//
// Which elements are "interior" comes from the halo-distance ordering
// partition.Extract bakes into each rank's local mesh: entities are numbered
// by descending distance to the nearest exchanged entity (halo cell or
// non-owned edge), so the elements safe to compute while the halo is stale
// form a contiguous prefix of every index space.
//
// Safety is a taint argument. At Post time the exchanged fields (h, u — or
// h0, u0 at stage 3) are stale exactly at depth-0 entities: taint 0. An op
// whose tainted inputs carry taint t produces outputs correct at every
// entity of depth > t+1 for a stencil read (neighbors sit at most one hop
// closer to the halo) and > t for a pointwise (ShapeX) read; that bound is
// its threshold, and its interior slice is the depth prefix the Interior*
// callbacks report. An interior element at depth d > t >= 0 only ever reads
// entities at depth >= d-1 > t-1 >= 0 — never a depth-0 slot — so Wait may
// unpack into halo slots concurrently with interior compute without a race
// (interior ops write diagnostics, never the exchanged prognostic arrays).
// After the boundary slices run, every field is complete and identical to
// the blocking schedule's, so the taint map resets at each stage boundary
// and the overlap is bitwise-neutral.

// Overlap wires a compiled plan to a communication substrate. Post must
// initiate the halo exchange of st (nonblocking: pack and hand off); Wait
// must complete it (block for the messages and unpack into st's halo slots).
// The Interior* callbacks report, for a staleness threshold t, how many
// leading elements of each index space are safe to compute while the
// exchange is in flight (partition.Local's InteriorCells/Edges/Vertices).
type Overlap struct {
	Post func(stage int, st *State)
	Wait func(stage int, st *State)

	InteriorCells    func(t int) int
	InteriorEdges    func(t int) int
	InteriorVertices func(t int) int
}

// NewOverlapPlanRunner compiles the step plan for s and overlays every
// stage's hook slot with the Post / interior / Wait / boundary split. The
// solver must have no PostSubstep hook installed when stepping through the
// returned runner (Step falls back to the blocking kernel loop otherwise);
// the exchange rides on ov instead. Init and tracer paths still run the
// full-range kernel plans — callers must only invoke them when halos are
// consistent, exactly as with the blocking rank solver.
func NewOverlapPlanRunner(s *Solver, pool *par.Pool, ov *Overlap) (*PlanRunner, error) {
	if ov == nil || ov.Post == nil || ov.Wait == nil ||
		ov.InteriorCells == nil || ov.InteriorEdges == nil || ov.InteriorVertices == nil {
		return nil, fmt.Errorf("sw: overlap runner needs all Overlap callbacks")
	}
	r, err := NewPlanRunner(s, pool)
	if err != nil {
		return nil, err
	}
	op, err := r.overlayPlan(r.stepPlan, ov)
	if err != nil {
		return nil, err
	}
	if err := verifyOverlay(r.stepPlan, op); err != nil {
		return nil, err
	}
	r.stepPlan = op
	r.ov = ov
	return r, nil
}

// threshold returns the staleness threshold of sp given the current taint
// map: the maximum over its tainted reads of taint+1 (stencil) or taint+0
// (pointwise ShapeX), or -1 if it reads nothing tainted. Non-X shapes treat
// every read as a stencil read — conservative for the few pointwise operands
// they carry (e.g. G's vorticity), costing a slightly thinner interior.
func threshold(sp opSpec, taint map[string]int) int {
	t := -1
	inc := 1
	if sp.shape == pattern.ShapeX {
		inc = 0
	}
	for _, v := range sp.reads {
		if tv, ok := taint[v]; ok && tv+inc > t {
			t = tv + inc
		}
	}
	return t
}

// interiorCount maps an op's output index space to its interior prefix
// length at threshold t.
func (r *CompiledRunner[F]) interiorCount(ov *Overlap, sp opSpec, t int) (int, error) {
	var n int
	switch sp.out {
	case pattern.Mass:
		n = ov.InteriorCells(t)
	case pattern.Velocity:
		n = ov.InteriorEdges(t)
	case pattern.Vorticity:
		n = ov.InteriorVertices(t)
	default:
		return 0, fmt.Errorf("sw: overlay: op %s has no interior index space", sp.id)
	}
	if n < 0 || n > sp.n {
		return 0, fmt.Errorf("sw: overlay: op %s interior %d outside [0,%d]", sp.id, n, sp.n)
	}
	return n, nil
}

// offsetRanges statically partitions [lo,hi) across nw workers (chunk
// boundaries 8-aligned relative to lo, like alignedRanges).
func offsetRanges(lo, hi, nw int) [][2]int32 {
	rs := alignedRanges(hi-lo, nw)
	for w := range rs {
		rs[w][0] += int32(lo)
		rs[w][1] += int32(lo)
	}
	return rs
}

// overlayPlan rewrites a compiled (and verified) step plan: each stage's
// hook slot becomes a Post op, every subsequent op of the stage splits into
// an interior slice (before Wait, runs during the exchange) and a boundary
// slice (after Wait), and a Wait op lands between them. Ops before the hook
// (tendency + provisional updates) keep their full ranges and barriers —
// they read only the previous stage's completed fields. Interior and
// boundary slices get conservative all-barriers: splitting ranges breaks
// the identical-partition premise of the locality predicate that let the
// original schedule elide some of them.
func (r *CompiledRunner[F]) overlayPlan(p *plan, ov *Overlap) (*plan, error) {
	nw := r.pool.Workers()
	q := &plan{s: p.s, ov: ov, specs: p.specs}
	for i := 0; i < len(p.ops); i++ {
		op := p.ops[i]
		if !op.hook {
			// Pre-hook op of some stage: keep as compiled.
			q.ops = append(q.ops, op)
			q.order = append(q.order, p.order[i])
			continue
		}
		hookSpec := p.specs[p.order[i]]
		stage := op.stage
		// The exchanged fields go stale at depth-0 entities the moment the
		// exchange is posted.
		taint := map[string]int{}
		for _, v := range hookSpec.writes {
			taint[v] = 0
		}
		q.ops = append(q.ops, planOp{id: fmt.Sprintf("post@%d", stage), stage: stage, post: true})
		q.order = append(q.order, p.order[i])
		// Collect the rest of this stage (everything after the hook up to
		// the next stage boundary; one hook per stage).
		j := i + 1
		for j < len(p.ops) && p.ops[j].stage == stage && !p.ops[j].hook {
			j++
		}
		type split struct {
			pos int // position in p.ops
			ic  int // interior prefix length, -1 = unsplit
		}
		splits := make([]split, 0, j-i-1)
		for k := i + 1; k < j; k++ {
			sp := p.specs[p.order[k]]
			t := threshold(sp, taint)
			ic := -1
			if t >= 0 {
				var err error
				ic, err = r.interiorCount(ov, sp, t)
				if err != nil {
					return nil, err
				}
				for _, v := range sp.writes {
					taint[v] = t
				}
			}
			splits = append(splits, split{pos: k, ic: ic})
		}
		// Interior slices, in compiled order, every one a barrier.
		for _, sl := range splits {
			o := p.ops[sl.pos]
			sp := p.specs[p.order[sl.pos]]
			hi := sp.n
			if sl.ic >= 0 {
				hi = sl.ic
				o.id = sp.id + ":int"
			}
			o.ranges = offsetRanges(0, hi, nw)
			o.barrier = true
			q.ops = append(q.ops, o)
			q.order = append(q.order, p.order[sl.pos])
		}
		// Wait: worker 0 completes the exchange and unpacks; the barrier
		// after it releases the boundary slices.
		q.ops = append(q.ops, planOp{id: fmt.Sprintf("wait@%d", stage), stage: stage,
			wait: true, barrier: true})
		q.order = append(q.order, p.order[i])
		// Boundary slices, same compiled order.
		for _, sl := range splits {
			if sl.ic < 0 {
				continue
			}
			o := p.ops[sl.pos]
			sp := p.specs[p.order[sl.pos]]
			o.id = sp.id + ":bnd"
			o.ranges = offsetRanges(sl.ic, sp.n, nw)
			o.barrier = true
			q.ops = append(q.ops, o)
			q.order = append(q.order, p.order[sl.pos])
		}
		i = j - 1
	}
	// The region join provides the final synchronization.
	if n := len(q.ops); n > 0 {
		q.ops[n-1].barrier = false
	}
	q.barrierAfter = make([]bool, len(q.ops))
	for i, op := range q.ops {
		q.barrierAfter[i] = op.barrier
		if op.barrier && !op.wait {
			q.barriers++
		}
	}
	q.exec = q.run
	return q, nil
}

// verifyOverlay structurally checks an overlaid plan against the plan it was
// derived from: every original compute op must reappear exactly once
// (unsplit) or exactly twice (interior before the stage's wait, boundary
// after, slices tiling [0,n) with per-worker ranges tiling each slice);
// every stage must carry one post before its interior slices and one
// barriered wait before its boundary slices; and relative compute order must
// be preserved.
func verifyOverlay(orig, ov *plan) error {
	type span struct{ lo, hi int32 }
	covered := map[string][]span{} // original op id -> slices seen, in order
	var origIDs, ovIDs []string
	for _, op := range orig.ops {
		if !op.hook {
			origIDs = append(origIDs, op.id)
		}
	}
	posted := map[int]bool{}
	waited := map[int]bool{}
	for _, op := range ov.ops {
		switch {
		case op.post:
			if posted[op.stage] {
				return fmt.Errorf("sw: overlay: stage %d posts twice", op.stage)
			}
			posted[op.stage] = true
		case op.wait:
			if !posted[op.stage] {
				return fmt.Errorf("sw: overlay: stage %d waits before posting", op.stage)
			}
			if waited[op.stage] {
				return fmt.Errorf("sw: overlay: stage %d waits twice", op.stage)
			}
			waited[op.stage] = true
		case op.hook:
			return fmt.Errorf("sw: overlay kept hook op")
		default:
			base := op.id
			isInt := false
			if n := len(base); n > 4 && (base[n-4:] == ":int" || base[n-4:] == ":bnd") {
				isInt = base[n-4:] == ":int"
				base = base[:n-4]
			}
			if isInt && waited[op.stage] {
				return fmt.Errorf("sw: overlay: interior op %s after its stage's wait", op.id)
			}
			if len(op.id) != len(base) && !isInt && !waited[op.stage] {
				return fmt.Errorf("sw: overlay: boundary op %s before its stage's wait", op.id)
			}
			ovIDs = append(ovIDs, base)
			// Worker ranges must tile the slice contiguously.
			lo := op.ranges[0][0]
			hi := lo
			for _, rg := range op.ranges {
				if rg[0] != hi || rg[1] < rg[0] {
					return fmt.Errorf("sw: overlay: op %s worker ranges do not tile", op.id)
				}
				hi = rg[1]
			}
			covered[base] = append(covered[base], span{lo, hi})
		}
	}
	for st := 0; st < 4; st++ {
		if !posted[st] || !waited[st] {
			return fmt.Errorf("sw: overlay: stage %d missing post or wait", st)
		}
	}
	// Compute order preserved: a split op appears as :int ... (others) ...
	// :bnd, so compare the subsequence of FIRST occurrences.
	seen := map[string]bool{}
	var firsts []string
	for _, id := range ovIDs {
		if !seen[id] {
			seen[id] = true
			firsts = append(firsts, id)
		}
	}
	if len(firsts) != len(origIDs) {
		return fmt.Errorf("sw: overlay covers %d ops, original has %d", len(firsts), len(origIDs))
	}
	for i := range firsts {
		if firsts[i] != origIDs[i] {
			return fmt.Errorf("sw: overlay reorders op %s (expected %s)", firsts[i], origIDs[i])
		}
	}
	// Slices tile each op's full index space.
	for i, id := range origIDs {
		spans := covered[id]
		var hi int32
		for _, s := range spans {
			if s.lo != hi {
				return fmt.Errorf("sw: overlay: op %s slices leave a gap at %d", id, hi)
			}
			hi = s.hi
		}
		n := int32(0)
		for _, op := range orig.ops {
			if op.hook {
				continue
			}
			if origIDs[i] == op.id {
				n = op.ranges[len(op.ranges)-1][1]
				break
			}
		}
		if hi != n {
			return fmt.Errorf("sw: overlay: op %s slices cover [0,%d), index space is [0,%d)", id, hi, n)
		}
	}
	return nil
}
