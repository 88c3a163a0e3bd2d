// Linear time-invariant view of the domain circuit. The transient system of
// domain.go is linear in the state x = (iL, vB, vT0..vT3) with a forcing
// term that is a DC component plus a handful of sinusoidal harmonics per
// tile, so it admits an exact solution: the homogeneous part decays, and
// each sinusoid contributes a particular solution obtained from one complex
// phasor solve. lti.go holds the numerical kernels (state matrix assembly,
// complex LU); phasor.go builds the harmonic decomposition and runs the
// steady-state measurement loop.
package pdn

// ltiStates is the order of the domain state vector: inductor current, bump
// node voltage, and one voltage per tile node.
const ltiStates = 2 + DomainTiles

// ltiMatrix assembles the constant state matrix A of dx/dt = A·x + u(t)
// from the circuit element values. Rows follow the state order (iL, vB,
// vT0..vT3); the forcing term u carries the source voltage (row 0) and the
// tile current draws (rows 2..5) and is handled by the callers.
func (c *circuit) ltiMatrix() [ltiStates][ltiStates]float64 {
	var a [ltiStates][ltiStates]float64
	// L di/dt = Vs - Rb*iL - vB
	a[0][0] = -c.rb / c.lb
	a[0][1] = -1 / c.lb
	// Cb dvB/dt = iL - sum_i (vB - vTi)/Rv
	a[1][0] = 1 / c.cb
	a[1][1] = -DomainTiles * c.gv / c.cb
	for i := 0; i < DomainTiles; i++ {
		a[1][2+i] = c.gv / c.cb
	}
	// Cd dvTi/dt = (vB-vTi)/Rv + sum_adj (vTj-vTi)/Rg - Ii(t)
	for i := 0; i < DomainTiles; i++ {
		r := 2 + i
		a[r][1] = c.gv / c.cd
		a[r][r] = -c.gv / c.cd
		for j := 0; j < DomainTiles; j++ {
			if domainAdjacency[i][j] {
				a[r][r] -= c.gg / c.cd
				a[r][2+j] += c.gg / c.cd
			}
		}
	}
	return a
}

// cluFactor is the pivoted LU factorization of the complex admittance
// system (jωI - A) of one harmonic frequency. One factorization serves
// every load signature at that frequency: the forcing vector changes per
// solve, the matrix does not.
type cluFactor struct {
	lu  [ltiStates][ltiStates]complex128
	piv [ltiStates]int8
}

// factorAdmittance builds and LU-factors (jωI - A). A is Hurwitz (the
// circuit dissipates), so jω on the imaginary axis is never an eigenvalue
// and the system is nonsingular for every real ω; the pivot check guards
// the contract anyway.
func factorAdmittance(a *[ltiStates][ltiStates]float64, omega float64, f *cluFactor) error {
	for i := 0; i < ltiStates; i++ {
		for j := 0; j < ltiStates; j++ {
			f.lu[i][j] = complex(-a[i][j], 0)
		}
		f.lu[i][i] += complex(0, omega)
	}
	n := ltiStates
	for col := 0; col < n; col++ {
		pivot := col
		best := cabs1(f.lu[col][col])
		for r := col + 1; r < n; r++ {
			if m := cabs1(f.lu[r][col]); m > best {
				pivot, best = r, m
			}
		}
		if best == 0 {
			return ErrSingular
		}
		f.lu[col], f.lu[pivot] = f.lu[pivot], f.lu[col]
		f.piv[col] = int8(pivot)
		inv := 1 / f.lu[col][col]
		for r := col + 1; r < n; r++ {
			m := f.lu[r][col] * inv
			f.lu[r][col] = m
			for c := col + 1; c < n; c++ {
				f.lu[r][c] -= m * f.lu[col][c]
			}
		}
	}
	return nil
}

// solve solves (jωI - A)·x = b in place using the stored factorization.
func (f *cluFactor) solve(b *[ltiStates]complex128) {
	n := ltiStates
	for col := 0; col < n; col++ {
		if p := int(f.piv[col]); p != col {
			b[col], b[p] = b[p], b[col]
		}
		for r := col + 1; r < n; r++ {
			b[r] -= f.lu[r][col] * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		for c := r + 1; c < n; c++ {
			b[r] -= f.lu[r][c] * b[c]
		}
		b[r] /= f.lu[r][r]
	}
}

// cabs1 is the |re|+|im| magnitude used for pivot selection (cheaper than
// the Euclidean modulus, same pivoting quality).
func cabs1(v complex128) float64 { return abs(real(v)) + abs(imag(v)) }
