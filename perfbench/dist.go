package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"time"

	"repro/internal/dist"
	"repro/internal/halo"
	"repro/internal/mesh"
	"repro/internal/partition"
)

const (
	distLevel = 7
	// distSteps is fixed, not seeded: rank 0's byte count includes the
	// set-up and gather traffic, so bytes per step is an exact count only
	// at a fixed step count.
	distSteps = 40
	// The probe that measures the dist and halo layers in the traced runs
	// of the other workloads.
	probeDistLevel = 5
	probeDistSteps = 10
)

var hashLine = regexp.MustCompile(`(?m)^swrank hash ([0-9a-f]{16})$`)

// launchResult is one swrank invocation as rank 0 reported it.
type launchResult struct {
	wall  float64
	hash  string
	entry struct {
		SecondsPerStep   float64 `json:"seconds_per_step"`
		Rank0BytesSent   int64   `json:"rank0_bytes_sent"`
		Rank0WaitSeconds float64 `json:"rank0_wait_seconds"`
		Rank0OverlapEff  float64 `json:"rank0_overlap_efficiency"`
	}
}

// setup is the launch wall time not spent in timed steps: process start,
// mesh build, partition, rendezvous and gather.
func (l *launchResult) setup(steps int) float64 {
	return l.wall - l.entry.SecondsPerStep*float64(steps)
}

// launch runs swrank once: the single-process single-worker reference for
// "serial", otherwise two ranks (one worker each) with overlapped halo
// exchange under the barrier plan or the task graph.
func launch(r *run, schedule string, level, steps int) (*launchResult, error) {
	benchOut := filepath.Join(r.outDir, fmt.Sprintf("swrank-%d.json", os.Getpid()))
	_ = os.Remove(benchOut)
	defer os.Remove(benchOut)
	args := []string{"-case", "tc5", "-level", fmt.Sprint(level), "-steps", fmt.Sprint(steps),
		"-hash", "-workers", "1", "-timeout", "90s", "-bench-out", benchOut, "-bench-key", "runs"}
	switch schedule {
	case "serial":
		args = append(args, "-serial")
	case "plan":
		args = append(args, "-launch", "2")
	case "taskplan":
		args = append(args, "-launch", "2", "-taskplan")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.swrank, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	sp := r.span("swrank " + schedule)
	t0 := time.Now()
	err := cmd.Run()
	lr := &launchResult{wall: time.Since(t0).Seconds()}
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("swrank %v: %w\n%s", args, err, stderr.String())
	}
	if m := hashLine.FindSubmatch(stdout.Bytes()); m != nil {
		lr.hash = string(m[1])
	}
	raw, err := os.ReadFile(benchOut)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Runs) != 1 {
		return nil, fmt.Errorf("swrank bench output %s: %v", raw, err)
	}
	if err := json.Unmarshal(doc.Runs[0], &lr.entry); err != nil {
		return nil, err
	}
	return lr, nil
}

// distLaunches runs the serial reference, then pairs of (plan, taskplan)
// launches — the side that goes first alternating from pair to pair, the
// first pair's order set by the seed — until the budget is spent (at least
// one pair). Every launch's hash must equal the serial hash.
func distLaunches(r *run, level, steps int, budget time.Duration) (ref *launchResult, runs map[string][]*launchResult, err error) {
	deadline := time.Now().Add(budget)
	if ref, err = launch(r, "serial", level, steps); err != nil {
		return nil, nil, err
	}
	r.tally.check(ref.hash != "", "swrank -serial printed no hash")
	runs = map[string][]*launchResult{}
	for pair := 0; pair == 0 || time.Now().Before(deadline); pair++ {
		order := []string{"plan", "taskplan"}
		if (int64(pair)+r.seed)%2 != 0 {
			order[0], order[1] = order[1], order[0]
		}
		for _, sched := range order {
			lr, err := launch(r, sched, level, steps)
			if err != nil {
				return nil, nil, err
			}
			r.tally.check(lr.hash == ref.hash, "%s hash %s differs from serial hash %s", sched, lr.hash, ref.hash)
			runs[sched] = append(runs[sched], lr)
		}
	}
	return ref, runs, nil
}

// reportDist sets the dist-layer metrics from a set of launches.
func reportDist(r *run, ref *launchResult, runs map[string][]*launchResult, steps int) {
	r.set("dist.serial_step_s", ref.entry.SecondsPerStep)
	for _, sched := range []string{"plan", "taskplan"} {
		var perStep, wait, eff []float64
		for _, lr := range runs[sched] {
			perStep = append(perStep, lr.entry.SecondsPerStep)
			wait = append(wait, lr.entry.Rank0WaitSeconds/float64(steps))
			eff = append(eff, lr.entry.Rank0OverlapEff)
			r.set("dist.halo_bytes_per_step", float64(lr.entry.Rank0BytesSent)/float64(steps))
		}
		r.sample("dist.step_s."+sched, perStep...)
		r.sample("dist.overlap_efficiency."+sched, eff...)
		r.set("dist.step_s."+sched, median(perStep))
		r.set("dist.wait_s_per_step."+sched, median(wait))
		r.set("dist.overlap_efficiency."+sched, median(eff))
	}
	r.set("dist.parallel_efficiency", ref.entry.SecondsPerStep/(2*r.values["dist.step_s.plan"]))
}

// profileHalo times halo.PackSend and UnpackRecv of one cell and one edge
// field over rank 0's side of a two-part split of m.
func profileHalo(r *run, m *mesh.Mesh) error {
	sp := r.span("halo pack/unpack")
	defer sp.End()
	p, err := partition.Bisect(m, 2)
	if err != nil {
		return err
	}
	locals := []*partition.Local{
		partition.Extract(m, p, 0, dist.HaloLayers),
		partition.Extract(m, p, 1, dist.HaloLayers),
	}
	spec := halo.BuildSpecs(m, locals)[0]
	lm := locals[0].M
	cells, edges := make([]float64, lm.NCells), make([]float64, lm.NEdges)
	send := make([]float64, spec.SendLen(1))
	recv := make([]float64, spec.RecvLen(1))
	const batch = 50
	var pack, unpack []float64
	deadline := r.deadline(0.02)
	for len(pack) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			spec.PackSend(1, cells, edges, send)
		}
		t1 := time.Now()
		for i := 0; i < batch; i++ {
			spec.UnpackRecv(1, recv, cells, edges)
		}
		pack = append(pack, t1.Sub(t0).Seconds()*1e6/batch)
		unpack = append(unpack, time.Since(t1).Seconds()*1e6/batch)
	}
	r.sample("halo.pack_us", pack...)
	r.sample("halo.unpack_us", unpack...)
	r.set("halo.pack_us", median(pack))
	r.set("halo.unpack_us", median(unpack))
	return nil
}

// runDist is the two-rank workload: swrank -launch 2 on TC5 at level 7
// with overlapped halo exchange, under both schedules.
func runDist(r *run) error {
	if r.swrank == "" {
		return fmt.Errorf("dist-l7 needs -swrank")
	}
	if r.traced {
		t0 := time.Now()
		sp := r.span("mesh.Build")
		m, err := dist.DefaultMesh(distLevel)
		sp.End()
		if err != nil {
			return err
		}
		r.set("mesh.build_s", time.Since(t0).Seconds())
		if err := profileInProcess(r, m, r.budget(0.3)); err != nil {
			return err
		}
		if err := profileHalo(r, m); err != nil {
			return err
		}
		if err := probeEnsemble(r); err != nil {
			return err
		}
	}
	budget := r.budget(1)
	if r.traced {
		budget = r.budget(0.3)
	}
	ref, runs, err := distLaunches(r, distLevel, distSteps, budget)
	if err != nil {
		return err
	}
	reportDist(r, ref, runs, distSteps)
	var setups, meds []float64
	steps, busy := 0, 0.0
	for _, sched := range []string{"plan", "taskplan"} {
		meds = append(meds, r.values["dist.step_s."+sched])
		for _, lr := range runs[sched] {
			setups = append(setups, lr.setup(distSteps))
			steps += distSteps
			busy += lr.entry.SecondsPerStep * distSteps
		}
	}
	r.sample("setup_s", setups...)
	r.set("setup_s", median(setups))
	r.set("step_s", geomean(meds))
	r.set("throughput_per_s", float64(steps)/busy)
	r.note("dist: %d plan and %d taskplan launches of %d steps at level %d", len(runs["plan"]), len(runs["taskplan"]), distSteps, distLevel)
	return nil
}

// probeDist measures the dist and halo layers with a small fixed run, for
// the traced runs of workloads whose path does not cross them.
func probeDist(r *run) error {
	if r.swrank == "" {
		return fmt.Errorf("the dist probe needs -swrank")
	}
	sp := r.span("probe dist")
	defer sp.End()
	m, err := dist.DefaultMesh(probeDistLevel)
	if err != nil {
		return err
	}
	if err := profileHalo(r, m); err != nil {
		return err
	}
	ref, runs, err := distLaunches(r, probeDistLevel, probeDistSteps, 0)
	if err != nil {
		return err
	}
	reportDist(r, ref, runs, probeDistSteps)
	return nil
}
