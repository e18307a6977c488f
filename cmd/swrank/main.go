// swrank is the distributed shallow-water rank binary: one OS process per
// rank, exchanging multi-layer halos over the internal/dist TCP runtime.
// dist.RunLocal runs the same ranks as goroutines of one process; swrank is
// the executable behind the repository's real strong-scaling numbers.
//
// Modes:
//
//	swrank -launch 4 -case tc5 -level 5 -steps 10        # spawn+supervise 4 local ranks
//	swrank -rank 1 -ranks 4 -addr0 127.0.0.1:7000 ...    # one rank (launcher does this)
//	swrank -serial -case tc5 -level 5 -steps 10 -hash    # single-process reference
//
// Every rank builds the mesh itself and all ranks build at the same time:
// rank 0 announces its address first, then builds, computes the partition,
// distributes the owner map during the TCP rendezvous, and gathers the
// final fields. -overlap (default) steps through the comm/compute-overlapped
// compiled plan; -overlap=false steps the same compiled kernels with a
// blocking exchange at each RK substep boundary, so the pair isolates the
// scheduling difference. -hash prints a 64-bit FNV-1a of the final global
// state: the distributed hash must equal the -serial hash bit for bit
// (scripts/ci.sh checks exactly that).
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/conform"
	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/sw"
	"repro/internal/telemetry"
)

type options struct {
	launch    int
	rank      int
	ranks     int
	addr0     string
	listen    string
	serial    bool
	caseN     string
	level     int
	steps     int
	overlap   bool
	taskplan  bool
	reorder   bool
	workers   int
	hash      bool
	out       string
	benchOut  string
	benchKey  string
	timeout   time.Duration
	crashRank int
	crashStep int
}

func main() {
	var o options
	flag.IntVar(&o.launch, "launch", 0, "spawn and supervise N local ranks of this binary")
	flag.IntVar(&o.rank, "rank", -1, "this process's rank (launcher sets this)")
	flag.IntVar(&o.ranks, "ranks", 0, "total rank count (launcher sets this)")
	flag.StringVar(&o.addr0, "addr0", "", "rank 0 listen address / address to dial (host:port)")
	flag.StringVar(&o.listen, "listen", "127.0.0.1:0", "peer-listener bind address on ranks > 0")
	flag.BoolVar(&o.serial, "serial", false, "single-process reference run (no networking)")
	flag.StringVar(&o.caseN, "case", "tc5", "test case: tc1, tc2, tc5, tc6, galewsky")
	flag.IntVar(&o.level, "level", 5, "icosahedral mesh subdivision level")
	flag.IntVar(&o.steps, "steps", 10, "RK-4 steps")
	flag.BoolVar(&o.overlap, "overlap", true, "overlap halo exchange with interior compute")
	flag.BoolVar(&o.taskplan, "taskplan", false, "execute the compiled plan as a dependency-counted task graph (no level barriers)")
	flag.BoolVar(&o.reorder, "reorder", false, "locality renumbering: run on the SFC-reordered mesh (SFC partition; output stays canonical)")
	flag.IntVar(&o.workers, "workers", 0, "worker threads per rank (0 = NumCPU/ranks, min 1)")
	flag.BoolVar(&o.hash, "hash", false, "print FNV-1a 64 hash of the final global state")
	flag.StringVar(&o.out, "out", "", "rank 0: write the final state + mass series here")
	flag.StringVar(&o.benchOut, "bench-out", "", "rank 0: merge a timing entry into this JSON file")
	flag.StringVar(&o.benchKey, "bench-key", "dist_strong_scaling", "JSON key for the timing entries")
	flag.DurationVar(&o.timeout, "timeout", 2*time.Minute, "bound on every network operation and on the whole launch")
	flag.IntVar(&o.crashRank, "crash-rank", -1, "fault injection: this rank kills itself (SIGKILL)")
	flag.IntVar(&o.crashStep, "crash-step", 0, "fault injection: ...at the start of this step")
	flag.Parse()

	var err error
	switch {
	case o.launch > 0:
		err = runLauncher(&o)
	case o.serial:
		err = runSerial(&o)
	case o.rank >= 0:
		err = runRank(&o)
	default:
		err = fmt.Errorf("one of -launch, -serial or -rank is required")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "swrank:", err)
		os.Exit(1)
	}
}

func runLauncher(o *options) error {
	bin, err := os.Executable()
	if err != nil {
		return err
	}
	args := []string{
		"-case", o.caseN,
		"-level", fmt.Sprint(o.level),
		"-steps", fmt.Sprint(o.steps),
		"-overlap=" + fmt.Sprint(o.overlap),
		"-taskplan=" + fmt.Sprint(o.taskplan),
		"-reorder=" + fmt.Sprint(o.reorder),
		"-workers", fmt.Sprint(o.workers),
		"-timeout", o.timeout.String(),
		"-crash-rank", fmt.Sprint(o.crashRank),
		"-crash-step", fmt.Sprint(o.crashStep),
	}
	if o.hash {
		args = append(args, "-hash")
	}
	if o.out != "" {
		args = append(args, "-out", o.out)
	}
	if o.benchOut != "" {
		args = append(args, "-bench-out", o.benchOut, "-bench-key", o.benchKey)
	}
	return dist.Launch(bin, o.launch, args, o.timeout, os.Stdout, os.Stderr)
}

// buildCase constructs the canonical mesh and named case; every process of
// a run (and the serial reference it is compared against) goes through this
// same path, which is what makes independent per-process mesh construction
// sound. With -reorder the case's configuration is still derived from the
// CANONICAL mesh (inside NamedCase) and only then is the mesh swapped for
// its SFC-renumbered copy — the returned maps carry results back to
// canonical numbering so hashes and result files stay comparable bit for
// bit across the flag. The renumbering is deterministic, so every rank
// computes the same maps independently.
func buildCase(o *options) (*conform.Case, *mesh.Reorder, error) {
	m, err := dist.DefaultMesh(o.level)
	if err != nil {
		return nil, nil, err
	}
	c, err := conform.NamedCase(o.caseN, m, o.steps)
	if err != nil {
		return nil, nil, err
	}
	if !o.reorder {
		return c, nil, nil
	}
	ren := mesh.ComputeReorder(c.Mesh)
	rm, err := ren.Apply(c.Mesh)
	if err != nil {
		return nil, nil, err
	}
	c.Mesh = rm
	return c, ren, nil
}

// canonicalState maps a final (h, u) pair back to canonical numbering when
// the run was renumbered; with ren == nil it is the identity.
func canonicalState(ren *mesh.Reorder, h, u []float64) ([]float64, []float64) {
	if ren == nil {
		return h, u
	}
	ch := make([]float64, len(h))
	cu := make([]float64, len(u))
	ren.CellToCanonical(ch, h)
	ren.EdgeToCanonical(cu, u)
	return ch, cu
}

func runSerial(o *options) error {
	c, ren, err := buildCase(o)
	if err != nil {
		return err
	}
	s, err := sw.NewSolver(c.Mesh, c.Cfg)
	if err != nil {
		return err
	}
	workers := o.workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	pool := par.NewPool(workers)
	defer pool.Close()
	newRunner := sw.NewPlanRunner
	if o.taskplan {
		newRunner = sw.NewTaskPlanRunner
	}
	r, err := newRunner(s, pool)
	if err != nil {
		return err
	}
	s.Runner = r
	c.Setup(s)

	mass := []float64{s.ComputeInvariants().Mass}
	t0 := time.Now()
	for i := 0; i < o.steps; i++ {
		s.Step()
		if o.out != "" {
			mass = append(mass, s.ComputeInvariants().Mass)
		}
	}
	elapsed := time.Since(t0)
	perStep := elapsed.Seconds() / float64(o.steps)
	fmt.Printf("swrank serial: case=%s level=%d cells=%d steps=%d %.4fs/step\n",
		o.caseN, o.level, c.Mesh.NCells, o.steps, perStep)
	h, u := canonicalState(ren, s.State.H, s.State.U)
	if o.hash {
		fmt.Printf("swrank hash %016x\n", stateHash(h, u))
	}
	if o.out != "" {
		if err := dist.WriteResult(o.out, &dist.RunResult{
			Level: o.level, Steps: o.steps, H: h, U: u, Mass: mass}); err != nil {
			return err
		}
	}
	if o.benchOut != "" {
		return mergeBench(o.benchOut, o.benchKey, benchEntry{
			Mode: "serial", Procs: 1, Workers: workers, Level: o.level,
			Cells: c.Mesh.NCells, Steps: o.steps, Reorder: o.reorder,
			TaskPlan:       o.taskplan,
			SecondsPerStep: perStep,
		})
	}
	return nil
}

func runRank(o *options) error {
	if o.ranks < 1 || o.rank >= o.ranks {
		return fmt.Errorf("invalid -rank %d -ranks %d", o.rank, o.ranks)
	}
	if o.addr0 == "" {
		return fmt.Errorf("-addr0 is required in rank mode")
	}
	// Watchdog: whatever happens, a rank never outlives its timeout by more
	// than a grace period — the launcher's no-hang guarantee does not depend
	// on the comm layer's deadlines being reached.
	watchdog := time.AfterFunc(o.timeout+30*time.Second, func() {
		fmt.Fprintf(os.Stderr, "swrank: rank %d: watchdog expired\n", o.rank)
		os.Exit(2)
	})
	defer watchdog.Stop()

	var (
		c   *conform.Case
		ren *mesh.Reorder
	)
	build := func() (err error) {
		c, ren, err = buildCase(o)
		return err
	}
	cfg := dist.Config{
		Rank: o.rank, N: o.ranks, Addr0: o.addr0,
		ListenAddr: o.listen, Timeout: o.timeout,
	}
	var owner func() ([]int32, error)
	if o.rank == 0 {
		// Rank 0 announces before it builds, so every rank builds its mesh
		// at the same time; the others' hellos wait on its listener.
		cfg.Announce = os.Stdout
		owner = func() ([]int32, error) {
			if err := build(); err != nil {
				return nil, err
			}
			// On the renumbered mesh the SFC partition's parts are
			// contiguous index ranges — the locality blocks the kernels
			// walk are exactly the ownership blocks the exchange ships.
			partFn := partition.Bisect
			if o.reorder {
				partFn = partition.SFC
			}
			p, err := partFn(c.Mesh, o.ranks)
			if err != nil {
				return nil, err
			}
			return p.Owner, nil
		}
	} else if err := build(); err != nil {
		return err
	}
	b, err := dist.Connect(cfg, owner)
	if err != nil {
		return err
	}
	defer b.Comm.Close()
	reg := telemetry.NewRegistry()
	b.Comm.EnableTelemetry(reg)

	workers := o.workers
	if workers <= 0 {
		workers = runtime.NumCPU() / o.ranks
		if workers < 1 {
			workers = 1
		}
	}
	pool := par.NewPool(workers)
	defer pool.Close()

	rs, err := dist.NewRankSolver(b, c.Mesh, c.Cfg, c.Setup, pool,
		dist.RankOptions{Overlap: o.overlap, TaskPlan: o.taskplan})
	if err != nil {
		return err
	}
	rs.Ex.EnableTelemetry(reg)

	recordMass := o.out != "" && o.rank == 0
	var mass []float64
	stepMass := func() error {
		gm, err := rs.GlobalMass()
		if err != nil {
			return err
		}
		if o.rank == 0 {
			mass = append(mass, gm)
		}
		return nil
	}
	if o.out != "" {
		if err := stepMass(); err != nil {
			return err
		}
	}

	if err := b.Comm.Barrier(); err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < o.steps; i++ {
		if o.rank == o.crashRank && i == o.crashStep {
			// Fault injection: die the way a crashed node dies — no
			// goodbye frames, no flushes.
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
		if err := rs.Step(); err != nil {
			return err
		}
		if o.out != "" {
			if err := stepMass(); err != nil {
				return err
			}
		}
	}
	if err := b.Comm.Barrier(); err != nil {
		return err
	}
	elapsed := time.Since(t0).Seconds()
	maxElapsed, err := b.Comm.AllreduceMax(elapsed)
	if err != nil {
		return err
	}
	perStep := maxElapsed / float64(o.steps)

	h, err := rs.GatherCellField(rs.S.State.H)
	if err != nil {
		return err
	}
	u, err := rs.GatherEdgeField(rs.S.State.U)
	if err != nil {
		return err
	}

	fmt.Printf("swrank rank %d: steps=%d %.4fs/step sent=%dB recv=%dB wait=%.3fs overlap-eff=%.2f\n",
		o.rank, o.steps, perStep, b.Comm.BytesSent.Value(), b.Comm.BytesRecv.Value(),
		b.Comm.WaitTimer.Total().Seconds(), rs.Ex.OverlapEfficiency())

	if o.rank != 0 {
		return nil
	}
	h, u = canonicalState(ren, h, u)
	if o.hash {
		fmt.Printf("swrank hash %016x\n", stateHash(h, u))
	}
	if recordMass {
		if err := dist.WriteResult(o.out, &dist.RunResult{
			Level: o.level, Steps: o.steps, H: h, U: u, Mass: mass}); err != nil {
			return err
		}
	}
	if o.benchOut != "" {
		return mergeBench(o.benchOut, o.benchKey, benchEntry{
			Mode: "dist", Procs: o.ranks, Workers: workers, Level: o.level,
			Cells: c.Mesh.NCells, Steps: o.steps, Overlap: o.overlap,
			Reorder:          o.reorder,
			TaskPlan:         o.taskplan,
			SecondsPerStep:   perStep,
			Rank0BytesSent:   b.Comm.BytesSent.Value(),
			Rank0WaitSeconds: b.Comm.WaitTimer.Total().Seconds(),
			Rank0OverlapEff:  rs.Ex.OverlapEfficiency(),
		})
	}
	return nil
}

// stateHash is the FNV-1a 64 hash of the little-endian bytes of H then U —
// the cheap bitwise-conformance check scripts/ci.sh compares across process
// counts.
func stateHash(h, u []float64) uint64 {
	hs := fnv.New64a()
	var b [8]byte
	for _, f := range [][]float64{h, u} {
		for _, v := range f {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			hs.Write(b[:])
		}
	}
	return hs.Sum64()
}

// benchEntry is one point of the strong-scaling curve recorded into the
// benchmark JSON (appended under -bench-key, newest last).
type benchEntry struct {
	Mode             string  `json:"mode"` // "dist" or "serial"
	Procs            int     `json:"procs"`
	Workers          int     `json:"workers_per_rank"`
	Level            int     `json:"level"`
	Cells            int     `json:"cells"`
	Steps            int     `json:"steps"`
	Overlap          bool    `json:"overlap"`
	Reorder          bool    `json:"reorder,omitempty"`
	TaskPlan         bool    `json:"taskplan,omitempty"`
	SecondsPerStep   float64 `json:"seconds_per_step"`
	Rank0BytesSent   int64   `json:"rank0_bytes_sent,omitempty"`
	Rank0WaitSeconds float64 `json:"rank0_wait_seconds,omitempty"`
	Rank0OverlapEff  float64 `json:"rank0_overlap_efficiency,omitempty"`
}

// mergeBench appends entry to the array under key in the JSON object at
// path, preserving all other keys (the file is shared with scripts/bench.sh
// and the ladder report).
func mergeBench(path, key string, entry benchEntry) error {
	doc := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s exists but is not a JSON object: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	var entries []benchEntry
	if raw, ok := doc[key]; ok {
		if err := json.Unmarshal(raw, &entries); err != nil {
			return fmt.Errorf("%s key %q is not an entry array: %w", path, key, err)
		}
	}
	entries = append(entries, entry)
	enc, err := json.MarshalIndent(entries, "  ", "  ")
	if err != nil {
		return err
	}
	doc[key] = enc
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
