package sw

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestHotKernelsBoundsCheckFree is the asm-inspection regression gate for
// the compiled hot loops. It recompiles this package with the compiler's
// bounds-check diagnostic pass (-d=ssa/check_bce) and its assembly listing
// (-S), and fails if
//
//   - any IsInBounds/IsSliceInBounds check — a panicIndex call site in the
//     generated code — is attributed to plan_kernels.go, or
//   - any closure compiled from plan_kernels.go, in either the
//     go.shape.float32 or the go.shape.float64 instantiation, contains a
//     CALL (other than the stack-growth prologue): the inliner trap the
//     //go:noinline comment in plan_kernels.go documents turns every view
//     access into a call;
//   - such a closure carries a nil check inside a loop: the dictionary nil
//     check the same comment describes belongs once at closure entry, not
//     in every iteration.
//
// Negative controls pin that both passes measured something: the generic
// kernels in kernels.go keep bounds checks, and kernel closures of both
// shapes appear in the listing. The build cache keys on file content, so a
// cached compile would print nothing; a nonce comment is appended through a
// -overlay file to force exactly this package to recompile every run.
//
// scripts/ci.sh runs this test by name as its bounds-check gate.
func TestHotKernelsBoundsCheckFree(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles the package; skipped with -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	hot := filepath.Join(root, "internal", "sw", "plan_kernels.go")
	src, err := os.ReadFile(hot)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	replaced := filepath.Join(tmp, "plan_kernels.go")
	nonce := fmt.Sprintf("\n// bce-gate nonce %d\n", time.Now().UnixNano())
	if err := os.WriteFile(replaced, append(src, nonce...), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay := filepath.Join(tmp, "overlay.json")
	ov, err := json.Marshal(map[string]map[string]string{"Replace": {hot: replaced}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(overlay, ov, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "build", "-o", os.DevNull,
		"-overlay", overlay,
		"-gcflags=repro/internal/sw=-S -d=ssa/check_bce/debug=1",
		"./internal/sw")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build with check_bce failed: %v\n%s", err, out)
	}
	diag := string(out)

	// Negative control: the diagnostic pass must actually have fired — the
	// generic kernels in kernels.go legitimately keep bounds checks.
	if !strings.Contains(diag, "Found IsInBounds") && !strings.Contains(diag, "Found IsSliceInBounds") {
		t.Fatalf("no bounds-check diagnostics in the build output at all; the gate is not measuring anything")
	}

	re := regexp.MustCompile(`(?m)^.*plan_kernels\.go:\d+:\d+: Found Is(Slice)?InBounds.*$`)
	if hits := re.FindAllString(diag, -1); len(hits) > 0 {
		t.Errorf("bounds checks survive in the compiled hot kernels (%d):\n%s",
			len(hits), strings.Join(hits, "\n"))
	}

	closures, calls, loopNilChecks := kernelClosureScan(diag)
	for _, shape := range []string{"go.shape.float32", "go.shape.float64"} {
		if closures[shape] == 0 {
			t.Errorf("no %s kernel closures in the -S listing; the CALL gate is not measuring anything", shape)
		}
	}
	t.Logf("kernel closures checked for calls: %v", closures)
	if len(calls) > 0 {
		t.Errorf("compiled kernel closures contain calls (%d):\n%s", len(calls), strings.Join(calls, "\n"))
	}
	if len(loopNilChecks) > 0 {
		t.Errorf("compiled kernel closures nil-check inside a loop (%d):\n%s",
			len(loopNilChecks), strings.Join(loopNilChecks, "\n"))
	}
}

// kernelClosureScan scans a -S listing for the closures compiled from
// plan_kernels.go: it counts them per instantiation shape, returns every
// CALL they contain except the stack-growth prologue's, and every nil check
// (TESTB AL, (reg)) at or after the closure's first loop head (its smallest
// backward-jump target) — conservatively, "inside a loop".
func kernelClosureScan(listing string) (closures map[string]int, calls, loopNilChecks []string) {
	header := regexp.MustCompile(`^(\S+\[(go\.shape\.float(?:32|64))\]\S*\.func\d+) STEXT`)
	// An instruction line: hex pc, decimal pc, (position), mnemonic, operands.
	insn := regexp.MustCompile(`^\s+0x[0-9a-f]+ (\d+) \([^)]*\)\t(\w+)\t?(.*)$`)
	closures = map[string]int{}
	var fn, shape string // current kernel closure, "" outside one
	var nilChecks []int  // pcs of the current closure's nil checks
	loopHead := -1       // smallest backward-jump target seen so far
	flush := func() {
		for _, pc := range nilChecks {
			if loopHead >= 0 && pc >= loopHead {
				loopNilChecks = append(loopNilChecks, fmt.Sprintf("%s: TESTB at pc %d", fn, pc))
			}
		}
	}
	for _, line := range strings.Split(listing, "\n") {
		if line == "" || (line[0] != ' ' && line[0] != '\t') {
			if fn != "" {
				flush()
			}
			fn, nilChecks, loopHead = "", nil, -1
			if m := header.FindStringSubmatch(line); m != nil {
				fn, shape = m[1], m[2]
			}
			continue
		}
		m := insn.FindStringSubmatch(line)
		if fn == "" || m == nil {
			continue
		}
		pc, _ := strconv.Atoi(m[1])
		op, args := m[2], m[3]
		switch {
		case op == "TEXT" && !strings.Contains(line, "plan_kernels.go:"):
			fn = "" // a closure from another file
		case op == "TEXT":
			closures[shape]++
		case op == "CALL" && !strings.Contains(args, "runtime.morestack"):
			calls = append(calls, fn+": CALL "+args)
		case op == "TESTB" && strings.HasPrefix(args, "AL, ("):
			nilChecks = append(nilChecks, pc)
		case op[0] == 'J':
			if target, err := strconv.Atoi(args); err == nil && target <= pc &&
				(loopHead < 0 || target < loopHead) {
				loopHead = target
			}
		}
	}
	return closures, calls, loopNilChecks
}
