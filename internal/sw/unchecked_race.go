//go:build race

package sw

// Race-detector builds swap the unchecked raw-pointer views of unchecked.go
// for plain slice accesses: bounds-checked and race-instrumented, so -race
// runs exercise the exact compiled schedules with full instrumentation. The
// bounds-check-elimination gate (bce_test.go) builds without -race and so
// always measures the unchecked variant.

type elem interface{ float32 | float64 | int32 }

type view[E elem] struct{ s []E }

func vw[E elem](s []E) view[E] { return view[E]{s} }

func (v view[E]) at(i int) E     { return v.s[i] }
func (v view[E]) set(i int, x E) { v.s[i] = x }
