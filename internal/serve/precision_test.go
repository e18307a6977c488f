package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/conform"
)

// TestFloat32JobRuns submits a float32 fast-mode job through the HTTP API,
// lets it complete, and holds the served trajectory to the documented
// fast-mode band against a float64 reference — while also requiring it to
// actually differ from the reference (a silent float64 fallback would pass
// any band). Checkpoints are float64 regardless of job precision, so the
// final state reads back through the ordinary checkpoint path.
func TestFloat32JobRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	const steps = 8

	st := submitJob(t, ts.URL, JobSpec{TestCase: 5, Level: 2, Mode: "plan",
		Precision: "float32", Steps: steps})
	st = waitState(t, ts.URL, st.ID, StateCompleted)
	if st.Spec.Precision != "float32" {
		t.Fatalf("completed spec lost its precision: %+v", st.Spec)
	}

	served := fetchFinalState(t, ts.URL, st.ID, 2)
	ref := referenceRun(t, 2, steps)
	d := conform.CompareStates(ref.State.H, ref.State.U, served.State.H, served.State.U)
	band := conform.Fast32Band * float64(steps+1)
	if d.RelLInf > band || d.RelL2 > band {
		t.Errorf("float32 job outside the documented band %.1e: %v", band, d)
	}
	if d.RelLInf < 1e-9 {
		t.Errorf("float32 job is float64-close to the reference (%v); fast path did not run", d)
	}
}

// TestFloat32JobValidation pins the spec-level contract: float32 requires a
// host-only mode, both at submission and on resume under a mode override.
func TestFloat32JobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})

	resp := postJSON(t, ts.URL+"/jobs", JobSpec{TestCase: 5, Level: 2,
		Mode: "kernel", Precision: "float32", Steps: 4})
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "float32") {
		t.Fatalf("float32 under the kernel hybrid mode: status %d body %q, want 400 naming float32",
			resp.StatusCode, body)
	}

	var sp JobSpec
	sp = JobSpec{TestCase: 5, Level: 2, Precision: "float32", Steps: 4}
	if err := sp.Normalize(); err != nil {
		t.Fatalf("float32 with default mode rejected: %v", err)
	}
	if sp.Precision != "float32" || sp.Mode == "" {
		t.Fatalf("normalize dropped fields: %+v", sp)
	}

	sp = JobSpec{TestCase: 5, Level: 2, Precision: "float16", Steps: 4}
	if err := sp.Normalize(); err == nil ||
		!strings.Contains(err.Error(), "precision") {
		t.Fatalf("unknown precision accepted (err=%v)", err)
	}

	// A rejected mode: the message lists every mode float32 accepts.
	sp = JobSpec{TestCase: 5, Level: 2, Mode: "pattern", Precision: "float32", Steps: 4}
	err := sp.Normalize()
	if err == nil {
		t.Fatal("float32 under the pattern hybrid mode accepted")
	}
	for mode := range float32Modes {
		if !strings.Contains(err.Error(), mode) {
			t.Errorf("rejection %q does not name accepted mode %q", err, mode)
		}
	}
}
