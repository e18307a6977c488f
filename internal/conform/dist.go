package conform

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/dist"
)

// DistProc is the REAL-process distributed strategy: it shells out to a
// built cmd/swrank binary, which launches `ranks` OS processes that
// rendezvous over TCP, exchange multi-layer halos, and write the gathered
// final state plus mass series to a result file this strategy reads back.
// Owned-entity arithmetic is identical to the gather baseline — the
// distribution re-partitions index ranges and the halo exchange transports
// bitwise values — so the strategy is Exact (held to the ≤4-ULP band).
//
// Constraints that follow from crossing a process boundary:
//   - Only the named cases are supported (the processes rebuild the case
//     from its name); the case's mesh MUST be dist.DefaultMesh(level).
//   - Stage recording is unavailable (snapshots live rank-local).
//   - The strategy needs a prebuilt binary, so it is NOT part of
//     AllStrategies; the dist conformance suite builds one and constructs
//     the strategy explicitly.
//
// With reorder, every rank runs on the locality-renumbered mesh (swrank
// -reorder: SFC partition, renumbered rank-local kernels) and rank 0
// converts the gathered fields back to canonical numbering before writing
// the result — so the comparison against the canonical baseline stays a
// straight state compare at the same exact tolerance.
func DistProc(bin string, ranks, level int, overlap, reorder bool) Strategy {
	mode := "block"
	if overlap {
		mode = "ovl"
	}
	name := fmt.Sprintf("dist-p%d-%s", ranks, mode)
	if reorder {
		name += "+reorder"
	}
	return Strategy{Name: name, Exact: true, run: func(c *Case, _ bool) (*Result, error) {
		if _, err := NamedCase(c.Name, c.Mesh, c.Steps); err != nil {
			return nil, fmt.Errorf("dist strategy supports only named cases: %w", err)
		}
		tmp, err := os.MkdirTemp("", "swrank-conform-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		out := filepath.Join(tmp, "result.bin")
		cmd := exec.Command(bin,
			"-launch", fmt.Sprint(ranks),
			"-case", c.Name,
			"-level", fmt.Sprint(level),
			"-steps", fmt.Sprint(c.Steps),
			"-overlap="+fmt.Sprint(overlap),
			"-reorder="+fmt.Sprint(reorder),
			"-timeout", (2 * time.Minute).String(),
			"-out", out,
		)
		if outBytes, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("swrank launch failed: %w\n%s", err, outBytes)
		}
		r, err := dist.ReadResult(out)
		if err != nil {
			return nil, err
		}
		if len(r.H) != c.Mesh.NCells || len(r.U) != c.Mesh.NEdges {
			return nil, fmt.Errorf("result fields %d/%d, mesh has %d/%d — level mismatch?",
				len(r.H), len(r.U), c.Mesh.NCells, c.Mesh.NEdges)
		}
		return &Result{H: r.H, U: r.U, Mass: r.Mass}, nil
	}}
}
