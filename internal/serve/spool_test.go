package serve

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sw"
	"repro/internal/testcases"
)

func TestSpoolStatusRoundTrip(t *testing.T) {
	sp, err := newSpool(filepath.Join(t.TempDir(), "spool"))
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{TestCase: 5, Level: 2, Mode: "serial", Steps: 10}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := sp.createJob("j-1", spec); err != nil {
		t.Fatal(err)
	}
	st := JobStatus{ID: "j-1", State: StateRunning, Mode: "serial", StepsDone: 4, TotalSteps: 10, Spec: spec}
	if err := sp.writeStatus(st); err != nil {
		t.Fatal(err)
	}
	got, err := sp.readStatus("j-1")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateRunning || got.StepsDone != 4 || got.Spec.Steps != 10 {
		t.Fatalf("status round trip: %+v", got)
	}

	// Scan finds it; incomplete directories are skipped, not fatal.
	if err := os.MkdirAll(sp.jobDir("j-torn"), 0o755); err != nil {
		t.Fatal(err)
	}
	jobs, skipped, err := sp.scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "j-1" {
		t.Fatalf("scan jobs %+v", jobs)
	}
	if len(skipped) != 1 || skipped[0] != "j-torn" {
		t.Fatalf("scan skipped %v", skipped)
	}

	if err := sp.removeJob("j-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.readStatus("j-1"); err == nil {
		t.Fatal("status survived removeJob")
	}
}

func TestSpoolCheckpointAtomicReplace(t *testing.T) {
	sp, err := newSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := mesh.Build(1, mesh.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sw.NewSolver(m, sw.DefaultConfig(m))
	testcases.SetupTC2(s)
	if err := os.MkdirAll(sp.jobDir("j"), 0o755); err != nil {
		t.Fatal(err)
	}
	if sp.hasCheckpoint("j") {
		t.Fatal("phantom checkpoint")
	}
	if err := sp.writeCheckpoint("j", s); err != nil {
		t.Fatal(err)
	}
	if !sp.hasCheckpoint("j") {
		t.Fatal("checkpoint not written")
	}
	s.Run(2)
	if err := sp.writeCheckpoint("j", s); err != nil {
		t.Fatal(err)
	}
	// No leftover temp file after replacement.
	if _, err := os.Stat(sp.checkpointPath("j") + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	s2, _ := sw.NewSolver(m, sw.DefaultConfig(m))
	if err := s2.LoadCheckpoint(sp.checkpointPath("j")); err != nil {
		t.Fatal(err)
	}
	if s2.StepCount != 2 || s2.Time != s.Time {
		t.Fatalf("restored step %d time %v", s2.StepCount, s2.Time)
	}
}

func TestSpoolResultRoundTrip(t *testing.T) {
	sp, err := newSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(sp.jobDir("j"), 0o755); err != nil {
		t.Fatal(err)
	}
	res := Result{JobID: "j", Steps: 12, SimTime: 3600, Mode: "pattern", Final: &Diag{Mass: 1.5}}
	if err := sp.writeResult(res); err != nil {
		t.Fatal(err)
	}
	got, err := sp.readResult("j")
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != 12 || got.Final == nil || got.Final.Mass != 1.5 {
		t.Fatalf("result round trip: %+v", got)
	}
}

func TestSpoolRequiresDir(t *testing.T) {
	if _, err := newSpool(""); err == nil {
		t.Fatal("empty spool dir accepted")
	}
}

func TestJobSpecNormalize(t *testing.T) {
	ok := JobSpec{Steps: 5}
	if err := ok.Normalize(); err != nil {
		t.Fatal(err)
	}
	if ok.TestCase != 5 || ok.Level != 2 || ok.Mode != "serial" || ok.ReportEvery != 10 || ok.Workers != 2 {
		t.Fatalf("defaults not filled: %+v", ok)
	}
	bad := []JobSpec{
		{},                         // neither steps nor days
		{Steps: 5, Days: 1},        // both
		{Steps: 5, TestCase: 3},    // unknown test case
		{Steps: 5, Level: 9},       // beyond MaxLevel
		{Steps: 5, Mode: "gpu"},    // unknown mode
		{Steps: -1},                // negative
		{Steps: 5, TimeoutSec: -1}, // negative timeout
	}
	for i, spec := range bad {
		if err := spec.Normalize(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
	clamp := JobSpec{Steps: 1, Workers: 99, StepDelayMS: 9999}
	if err := clamp.Normalize(); err != nil {
		t.Fatal(err)
	}
	if clamp.Workers != 16 || clamp.StepDelayMS != 1000 {
		t.Fatalf("clamps not applied: %+v", clamp)
	}
}
