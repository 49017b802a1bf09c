// Package ode provides fixed-step explicit integrators for the patient
// glucose models. Systems are expressed as dy/dt = f(t, y) with the
// derivative written into a caller-provided slice to avoid allocation in the
// simulation hot loop.
package ode

import "fmt"

// System computes dydt = f(t, y). Implementations must not retain y or dydt.
type System func(t float64, y, dydt []float64)

// Method selects the integration scheme.
type Method int

const (
	// Euler is the explicit first-order scheme.
	Euler Method = iota + 1
	// RK4 is the classical fourth-order Runge-Kutta scheme.
	RK4
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Euler:
		return "euler"
	case RK4:
		return "rk4"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Integrator advances a System with a fixed internal step. The zero value is
// not usable; construct with New.
type Integrator struct {
	method Method
	// scratch buffers sized on first use
	k1, k2, k3, k4, tmp []float64
}

// New returns an Integrator using the given method.
func New(method Method) *Integrator {
	return &Integrator{method: method}
}

func (in *Integrator) resize(n int) {
	if len(in.k1) != n {
		in.k1 = make([]float64, n)
		in.k2 = make([]float64, n)
		in.k3 = make([]float64, n)
		in.k4 = make([]float64, n)
		in.tmp = make([]float64, n)
	}
}

// Step advances y in place from t to t+dt.
func (in *Integrator) Step(f System, t, dt float64, y []float64) {
	n := len(y)
	in.resize(n)
	switch in.method {
	case RK4:
		f(t, y, in.k1)
		for i := 0; i < n; i++ {
			in.tmp[i] = y[i] + 0.5*dt*in.k1[i]
		}
		f(t+0.5*dt, in.tmp, in.k2)
		for i := 0; i < n; i++ {
			in.tmp[i] = y[i] + 0.5*dt*in.k2[i]
		}
		f(t+0.5*dt, in.tmp, in.k3)
		for i := 0; i < n; i++ {
			in.tmp[i] = y[i] + dt*in.k3[i]
		}
		f(t+dt, in.tmp, in.k4)
		for i := 0; i < n; i++ {
			y[i] += dt / 6 * (in.k1[i] + 2*in.k2[i] + 2*in.k3[i] + in.k4[i])
		}
	default: // Euler
		f(t, y, in.k1)
		for i := 0; i < n; i++ {
			y[i] += dt * in.k1[i]
		}
	}
}

// Integrate advances y from t0 to t1 using steps of at most maxStep.
func (in *Integrator) Integrate(f System, t0, t1, maxStep float64, y []float64) {
	if maxStep <= 0 || t1 <= t0 {
		return
	}
	t := t0
	for t < t1 {
		dt := maxStep
		if t+dt > t1 {
			dt = t1 - t
		}
		in.Step(f, t, dt, y)
		t += dt
	}
}
