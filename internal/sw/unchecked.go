//go:build !race

package sw

import "unsafe"

// Unchecked array views for the compiled hot kernels (plan_kernels.go). The
// Go compiler cannot eliminate bounds checks on data-dependent gather
// subscripts (u[EdgesOnCell[j]] and friends), so the compiled kernels read
// and write through these raw-pointer views instead.
//
// Soundness is established OUTSIDE the hot loops, once, by construction:
//
//   - every gather index comes from the mesh's CSR image, and
//     mesh.PackCSR validates every column against its entity count;
//   - every target array is allocated to its entity count — by the solver,
//     or at float32 by the compiled runner from the solver's lengths — and
//     the solver's lengths are re-asserted against the mesh at plan compile
//     time (checkSolverShapes);
//   - loop bounds are the per-worker static ranges, partitions of [0, n).
//
// Under the race detector this file is replaced by unchecked_race.go, whose
// views are ordinary slice accesses — bounds-checked and, crucially,
// race-instrumented — so `go test -race` still watches the compiled
// schedules for real data races.

// elem is the element type of a view: a compiled plan's Float or an int32
// index.
type elem interface{ float32 | float64 | int32 }

type view[E elem] struct{ p *E }

func vw[E elem](s []E) view[E] { return view[E]{unsafe.SliceData(s)} }

func (v view[E]) at(i int) E {
	return *(*E)(unsafe.Add(unsafe.Pointer(v.p), uintptr(i)*unsafe.Sizeof(*v.p)))
}

func (v view[E]) set(i int, x E) {
	*(*E)(unsafe.Add(unsafe.Pointer(v.p), uintptr(i)*unsafe.Sizeof(*v.p))) = x
}
