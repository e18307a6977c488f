package sw

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Checkpointing: the prognostic state (h, u), the bottom topography and the
// clock are enough to resume a run exactly — diagnostics are recomputed by
// Init. Restart equivalence is bitwise and covered by tests.
//
// Checkpoints are ALWAYS in canonical mesh numbering: a solver running on a
// locality-renumbered mesh (s.Renumber non-nil) converts through the
// permutation maps on write and read, so the on-disk bytes are independent
// of the renumbering and a checkpoint moves freely between reordered and
// canonical runs (and between processes that disagree about reordering).

const (
	ckptMagic   = 0x53574350 // "SWCP"
	ckptVersion = 1
)

// WriteCheckpoint serializes the solver's prognostic state.
func (s *Solver) WriteCheckpoint(w io.Writer) error {
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
	for _, step := range []func() error{
		func() error { return put(ckptMagic) },
		func() error { return put(ckptVersion) },
		func() error { return put(uint64(s.StepCount)) },
		func() error { return putF(s.Time) },
		func() error { return putArr(s.canonicalCell(s.State.H)) },
		func() error { return putArr(s.canonicalEdge(s.State.U)) },
		func() error { return putArr(s.canonicalCell(s.B)) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCheckpoint restores a checkpoint written by WriteCheckpoint into the
// solver (whose mesh must match) and recomputes the diagnostics. On any
// error the solver is left exactly as it was.
func (s *Solver) ReadCheckpoint(r io.Reader) error {
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
			return fmt.Errorf("sw: checkpoint %s has %d entries, mesh needs %d", what, n, len(dst))
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
	if magic != ckptMagic {
		return fmt.Errorf("sw: bad checkpoint magic %#x", magic)
	}
	ver, err := get()
	if err != nil {
		return err
	}
	if ver != ckptVersion {
		return fmt.Errorf("sw: unsupported checkpoint version %d", ver)
	}
	steps, err := get()
	if err != nil {
		return err
	}
	timeBits, err := get()
	if err != nil {
		return err
	}
	// Decode everything into scratch first and commit only on full
	// success: a truncated or mismatched file leaves the solver untouched.
	h := make([]float64, len(s.State.H))
	u := make([]float64, len(s.State.U))
	b := make([]float64, len(s.B))
	if err := getArr(h, "h"); err != nil {
		return err
	}
	if err := getArr(u, "u"); err != nil {
		return err
	}
	if err := getArr(b, "b"); err != nil {
		return err
	}
	s.cellFromCanonical(s.State.H, h)
	s.edgeFromCanonical(s.State.U, u)
	s.cellFromCanonical(s.B, b)
	s.StepCount = int(steps)
	s.Time = math.Float64frombits(timeBits)
	s.Init()
	return nil
}

// canonicalCell returns a cell field in canonical mesh order: a converted
// copy when the solver's mesh is renumbered, the slice itself otherwise.
func (s *Solver) canonicalCell(a []float64) []float64 {
	if s.Renumber == nil {
		return a
	}
	out := make([]float64, len(a))
	s.Renumber.CellToCanonical(out, a)
	return out
}

// canonicalEdge is canonicalCell for edge fields.
func (s *Solver) canonicalEdge(a []float64) []float64 {
	if s.Renumber == nil {
		return a
	}
	out := make([]float64, len(a))
	s.Renumber.EdgeToCanonical(out, a)
	return out
}

// cellFromCanonical stores a canonical-order cell field into dst in the
// solver's numbering.
func (s *Solver) cellFromCanonical(dst, canon []float64) {
	if s.Renumber == nil {
		copy(dst, canon)
		return
	}
	s.Renumber.CellFromCanonical(dst, canon)
}

// edgeFromCanonical is cellFromCanonical for edge fields.
func (s *Solver) edgeFromCanonical(dst, canon []float64) {
	if s.Renumber == nil {
		copy(dst, canon)
		return
	}
	s.Renumber.EdgeFromCanonical(dst, canon)
}

// SaveCheckpoint writes the checkpoint to a file.
func (s *Solver) SaveCheckpoint(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteCheckpoint(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadCheckpoint restores a checkpoint from a file.
func (s *Solver) LoadCheckpoint(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.ReadCheckpoint(f)
}
