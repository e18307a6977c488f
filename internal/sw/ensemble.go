package sw

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Ensemble stepping: K perturbed trajectories of the SAME configuration
// multiplexed through ONE Solver. The mesh, the precomputed label matrices,
// the gather weights and — when a compiled runner of either precision is
// attached — the compiled execution plan are all built once and shared by
// every member; only the prognostic state (h, u) plus the clock is
// per-member. A member is activated by copying its state into the solver
// and re-deriving the diagnostics (exactly the checkpoint-resume path
// internal/conform proves lands on the uninterrupted trajectory within the
// exact-strategy ULP band), and consecutive activations of the SAME member
// skip the swap entirely, so chunked round-robin stepping pays one
// diagnostic solve per member per chunk and zero plan recompilations ever.
//
// This is the batch-admission substrate of the serving layer: an ensemble
// job is K jittered initial conditions advanced in rounds, their invariant
// diagnostics streamed per member, their states checkpointed together.

// EnsembleMember is one trajectory of an ensemble: a private prognostic
// state plus its clock. Diagnostics are not stored — they are re-derived
// on activation.
type EnsembleMember struct {
	State     *State
	StepCount int
	Time      float64
}

// Ensemble multiplexes K member trajectories through one shared Solver.
// Not safe for concurrent use; callers serialize access (the serve worker
// owns its job's ensemble exclusively).
type Ensemble struct {
	s       *Solver
	members []EnsembleMember
	// loaded is the member currently resident in the solver, -1 when none
	// (freshly built, after ReadCheckpoint, or after a direct member-state
	// mutation). Activating a non-resident member re-runs Init.
	loaded int
}

// NewEnsemble builds a k-member ensemble over s. Every member starts as a
// clone of s's current state and clock — perturb members afterwards with
// PerturbH. The solver keeps whatever Runner is attached; a compiled plan
// is therefore shared by all members.
func NewEnsemble(s *Solver, k int) (*Ensemble, error) {
	if k < 1 {
		return nil, fmt.Errorf("sw: ensemble needs at least 1 member, got %d", k)
	}
	e := &Ensemble{s: s, members: make([]EnsembleMember, k), loaded: -1}
	for i := range e.members {
		e.members[i] = EnsembleMember{
			State:     s.State.Clone(),
			StepCount: s.StepCount,
			Time:      s.Time,
		}
	}
	return e, nil
}

// K returns the member count.
func (e *Ensemble) K() int { return len(e.members) }

// Member returns member i's record. The returned state is live — mutating
// it invalidates the resident copy, so call only between WithMember
// activations (or use PerturbH, which handles residency).
func (e *Ensemble) Member(i int) *EnsembleMember { return &e.members[i] }

// StepOf returns member i's step count without activating it.
func (e *Ensemble) StepOf(i int) int {
	if i == e.loaded {
		return e.s.StepCount
	}
	return e.members[i].StepCount
}

// MinStep returns the least-advanced member's step count — the ensemble's
// committed progress frontier.
func (e *Ensemble) MinStep() int {
	min := e.StepOf(0)
	for i := 1; i < len(e.members); i++ {
		if st := e.StepOf(i); st < min {
			min = st
		}
	}
	return min
}

// MinTime returns the least-advanced member's simulation time.
func (e *Ensemble) MinTime() float64 {
	min := math.Inf(1)
	for i := range e.members {
		t := e.members[i].Time
		if i == e.loaded {
			t = e.s.Time
		}
		if t < min {
			min = t
		}
	}
	return min
}

// splitmix64 is the perturbation hash: a tiny, allocation-free generator
// with full 64-bit avalanche, so member jitter is a pure function of
// (seed, member, element) — identical across platforms and restarts.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PerturbH applies a deterministic relative perturbation to member i's
// thickness field: h[c] *= 1 + eps*u(seed, i, c) with u uniform in [-1, 1).
// The seeded-hash form keeps ensembles reproducible and lets a resubmitted
// job (work stealing, recovery) regenerate nothing — perturbation happens
// once, before the first step, and thereafter rides in checkpoints.
func (e *Ensemble) PerturbH(i int, seed uint64, eps float64) {
	e.stash()
	h := e.members[i].State.H
	base := splitmix64(seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	for c := range h {
		bits := splitmix64(base ^ uint64(c))
		u := float64(int64(bits)) / (1 << 63) // uniform in [-1, 1)
		h[c] *= 1 + eps*u
	}
}

// stash syncs the resident member (if any) back into its record and marks
// the solver non-resident.
func (e *Ensemble) stash() {
	if e.loaded < 0 {
		return
	}
	m := &e.members[e.loaded]
	m.State.CopyFrom(e.s.State)
	m.StepCount = e.s.StepCount
	m.Time = e.s.Time
	e.loaded = -1
}

// activate makes member i resident: state copied into the solver and the
// diagnostics re-derived (the proven resume path). A no-op when i is
// already resident — consecutive chunks of the same member step exactly
// like an uninterrupted run.
func (e *Ensemble) activate(i int) {
	if e.loaded == i {
		return
	}
	e.stash()
	m := &e.members[i]
	e.s.State.CopyFrom(m.State)
	e.s.StepCount = m.StepCount
	e.s.Time = m.Time
	e.s.Init()
	e.loaded = i
}

// WithMember activates member i, runs f on the shared solver, and syncs
// the member's record afterwards (even when f errors, so cooperative
// interruptions — suspend, cancel — leave the record at the last completed
// step). f must not retarget the solver's Runner or mutate its Cfg.
func (e *Ensemble) WithMember(i int, f func(*Solver) error) error {
	if i < 0 || i >= len(e.members) {
		return fmt.Errorf("sw: ensemble member %d out of range [0,%d)", i, len(e.members))
	}
	e.activate(i)
	err := f(e.s)
	m := &e.members[i]
	m.State.CopyFrom(e.s.State)
	m.StepCount = e.s.StepCount
	m.Time = e.s.Time
	return err
}

// Ensemble checkpoint format: like the solver checkpoint (checkpoint.go)
// but with a member dimension — magic, version, K, the shared topography
// once, then per member (step, time, h, u). Written tmp-then-rename by the
// serving spool, so a crash never tears it.
const (
	ensembleCkptMagic   = 0x53574543 // "SWEC"
	ensembleCkptVersion = 1
)

// WriteCheckpoint serializes every member (the resident one is stashed
// first, so records are current).
func (e *Ensemble) WriteCheckpoint(w io.Writer) error {
	e.stash()
	bw := bufio.NewWriter(w)
	put := func(v uint64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		_, err := bw.Write(b[:])
		return err
	}
	putF := func(v float64) error { return put(math.Float64bits(v)) }
	putArr := func(a []float64) error {
		if err := put(uint64(len(a))); err != nil {
			return err
		}
		for _, v := range a {
			if err := putF(v); err != nil {
				return err
			}
		}
		return nil
	}
	if err := put(ensembleCkptMagic); err != nil {
		return err
	}
	if err := put(ensembleCkptVersion); err != nil {
		return err
	}
	if err := put(uint64(len(e.members))); err != nil {
		return err
	}
	// Like the solver checkpoint, the bytes are canonical-order regardless
	// of any locality renumbering of the resident mesh.
	if err := putArr(e.s.canonicalCell(e.s.B)); err != nil {
		return err
	}
	for i := range e.members {
		m := &e.members[i]
		if err := put(uint64(m.StepCount)); err != nil {
			return err
		}
		if err := putF(m.Time); err != nil {
			return err
		}
		if err := putArr(e.s.canonicalCell(m.State.H)); err != nil {
			return err
		}
		if err := putArr(e.s.canonicalEdge(m.State.U)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCheckpoint restores an ensemble checkpoint written by
// WriteCheckpoint. The member count and mesh sizes must match; the shared
// topography is restored into the solver and every member becomes
// non-resident (the next activation re-derives diagnostics).
func (e *Ensemble) ReadCheckpoint(r io.Reader) error {
	br := bufio.NewReader(r)
	get := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	getArr := func(dst []float64, what string) error {
		n, err := get()
		if err != nil {
			return err
		}
		if int(n) != len(dst) {
			return fmt.Errorf("sw: ensemble checkpoint %s has %d entries, mesh needs %d", what, n, len(dst))
		}
		for i := range dst {
			v, err := get()
			if err != nil {
				return err
			}
			dst[i] = math.Float64frombits(v)
		}
		return nil
	}
	magic, err := get()
	if err != nil {
		return err
	}
	if magic != ensembleCkptMagic {
		return fmt.Errorf("sw: bad ensemble checkpoint magic %#x", magic)
	}
	ver, err := get()
	if err != nil {
		return err
	}
	if ver != ensembleCkptVersion {
		return fmt.Errorf("sw: unsupported ensemble checkpoint version %d", ver)
	}
	k, err := get()
	if err != nil {
		return err
	}
	if int(k) != len(e.members) {
		return fmt.Errorf("sw: ensemble checkpoint has %d members, ensemble has %d", k, len(e.members))
	}
	readArr := func(dst []float64, what string, fromCanon func(dst, src []float64)) error {
		if e.s.Renumber == nil {
			return getArr(dst, what)
		}
		tmp := make([]float64, len(dst))
		if err := getArr(tmp, what); err != nil {
			return err
		}
		fromCanon(dst, tmp)
		return nil
	}
	if err := readArr(e.s.B, "b", e.s.renumberCellFrom); err != nil {
		return err
	}
	for i := range e.members {
		m := &e.members[i]
		steps, err := get()
		if err != nil {
			return err
		}
		timeBits, err := get()
		if err != nil {
			return err
		}
		if err := readArr(m.State.H, fmt.Sprintf("member %d h", i), e.s.renumberCellFrom); err != nil {
			return err
		}
		if err := readArr(m.State.U, fmt.Sprintf("member %d u", i), e.s.renumberEdgeFrom); err != nil {
			return err
		}
		m.StepCount = int(steps)
		m.Time = math.Float64frombits(timeBits)
	}
	e.loaded = -1
	return nil
}

// SaveCheckpoint writes the ensemble checkpoint to a file.
func (e *Ensemble) SaveCheckpoint(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.WriteCheckpoint(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCheckpoint restores the ensemble from a file.
func (e *Ensemble) LoadCheckpoint(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return e.ReadCheckpoint(f)
}

// IsEnsembleCheckpoint sniffs whether the file at path begins with the
// ensemble checkpoint magic (false for single-solver checkpoints and on
// any read error).
func IsEnsembleCheckpoint(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var b [8]byte
	if _, err := io.ReadFull(f, b[:]); err != nil {
		return false
	}
	return binary.LittleEndian.Uint64(b[:]) == ensembleCkptMagic
}
