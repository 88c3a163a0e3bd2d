package pdn

import (
	"math"
	"testing"
)

// FuzzSolveLinear pins the solver's output contract: for any finite 3x3
// system, a nil error means every solution component is finite. Singular and
// ill-conditioned systems must be rejected with an error, never answered
// with NaN/Inf voltages — a non-finite DC operating point would poison an
// entire transient solve silently.
func FuzzSolveLinear(f *testing.F) {
	// Seed corpus: identity, a well-conditioned dense system, a singular
	// system (duplicate rows), a near-singular one, and wide dynamic range.
	f.Add(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 3.0)
	f.Add(4.0, 1.0, 2.0, 1.0, 5.0, 1.0, 2.0, 1.0, 6.0, 7.0, 8.0, 9.0)
	f.Add(1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1.0, 1.0, 1.0)
	f.Add(1.0, 1.0, 1.0, 1.0, 1.0, 1.0+1e-15, 1.0, 1.0, 2.0, 1.0, 1.0, 1.0)
	f.Add(1e-300, 0.0, 0.0, 0.0, 1e300, 0.0, 0.0, 0.0, 1.0, 1e-300, 1e300, 1.0)

	f.Fuzz(func(t *testing.T,
		a00, a01, a02, a10, a11, a12, a20, a21, a22, b0, b1, b2 float64) {
		vals := []float64{a00, a01, a02, a10, a11, a12, a20, a21, a22, b0, b1, b2}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("contract covers finite inputs only")
			}
		}
		a := [][]float64{
			{a00, a01, a02},
			{a10, a11, a12},
			{a20, a21, a22},
		}
		b := []float64{b0, b1, b2}
		x, err := SolveLinear(a, b)
		if err != nil {
			return // rejection is always acceptable
		}
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("SolveLinear returned non-finite x[%d]=%g with nil error", i, v)
			}
		}
	})
}
