package patient

import (
	"math/rand"

	"repro/internal/ode"
)

// GlucosymParams are the coefficients of the extended Bergman minimal model.
// Rates are per minute; glucose in mg/dL; plasma insulin in µU/mL.
type GlucosymParams struct {
	ProfileID int

	P1 float64 // glucose effectiveness (1/min)
	P2 float64 // remote insulin decay (1/min)
	P3 float64 // insulin action gain (mL/µU/min²)
	N  float64 // plasma insulin clearance (1/min)
	Ki float64 // infusion gain: µU/mL per U of insulin
	Gb float64 // basal (target) glucose (mg/dL)
	Ib float64 // basal plasma insulin (µU/mL)

	KAbs  float64 // gut absorption rate (1/min)
	CarbF float64 // mg/dL glucose rise per gram of carbs absorbed
}

// nominalGlucosym is the reference adult T1D parameter set.
func nominalGlucosym() GlucosymParams {
	return GlucosymParams{
		P1:    0.0035,
		P2:    0.025,
		P3:    1.3e-5,
		N:     0.14,
		Ki:    83,
		Gb:    120,
		Ib:    10,
		KAbs:  0.022,
		CarbF: 3.0,
	}
}

// GlucosymProfileCount is the number of simulated diabetic patient profiles
// (the paper simulates 20 per simulator).
const GlucosymProfileCount = 20

// GlucosymProfile returns the parameter set for profile id ∈ [0, 20).
// Profiles are generated deterministically: a fixed-seed RNG perturbs the
// nominal insulin-sensitivity, clearance and absorption parameters by up to
// ±25% and spreads basal glucose over 105–150 mg/dL, mimicking the
// inter-patient variability of the Glucosym population.
func GlucosymProfile(id int) (GlucosymParams, error) {
	if err := validateProfile(id, GlucosymProfileCount); err != nil {
		return GlucosymParams{}, err
	}
	rng := rand.New(rand.NewSource(1000 + int64(id)))
	vary := func(v, frac float64) float64 { return v * (1 + frac*(2*rng.Float64()-1)) }
	p := nominalGlucosym()
	p.ProfileID = id
	p.P1 = vary(p.P1, 0.25)
	p.P2 = vary(p.P2, 0.25)
	p.P3 = vary(p.P3, 0.25)
	p.N = vary(p.N, 0.15)
	p.Gb = 105 + 45*rng.Float64()
	p.Ib = vary(p.Ib, 0.2)
	p.KAbs = vary(p.KAbs, 0.2)
	p.CarbF = vary(p.CarbF, 0.15)
	return p, nil
}

// Glucosym is the Bergman-style plant. State vector:
//
//	y[0] = G    plasma glucose (mg/dL)
//	y[1] = X    remote insulin action (1/min)
//	y[2] = Ip   plasma insulin (µU/mL)
//	y[3] = Qgut glucose in gut (g)
type Glucosym struct {
	params GlucosymParams
	integ  *ode.Integrator
	y      [4]float64
	t      float64

	// inputs latched for the ODE right-hand side during a Step call
	insulin float64 // U/h
	carbs   float64 // g/min
}

var _ Model = (*Glucosym)(nil)

// NewGlucosym constructs the plant at its basal steady state.
func NewGlucosym(params GlucosymParams, method ode.Method) *Glucosym {
	g := &Glucosym{params: params, integ: ode.New(method)}
	g.Reset()
	return g
}

// NewGlucosymProfile is shorthand for profile lookup + construction with RK4.
func NewGlucosymProfile(id int) (*Glucosym, error) {
	p, err := GlucosymProfile(id)
	if err != nil {
		return nil, err
	}
	return NewGlucosym(p, ode.RK4), nil
}

// Name implements Model.
func (g *Glucosym) Name() string { return "glucosym" }

// ProfileID implements Model.
func (g *Glucosym) ProfileID() int { return g.params.ProfileID }

// Params returns the plant coefficients.
func (g *Glucosym) Params() GlucosymParams { return g.params }

// BG implements Model.
func (g *Glucosym) BG() float64 { return g.y[0] }

// BasalRate implements Model: the infusion that holds Ip at Ib.
// From dIp/dt = −n·Ip + ki·u/60 at steady state: u_b = 60·n·Ib/ki.
func (g *Glucosym) BasalRate() float64 {
	return 60 * g.params.N * g.params.Ib / g.params.Ki
}

// Reset implements Model.
func (g *Glucosym) Reset() {
	g.y = [4]float64{g.params.Gb, 0, g.params.Ib, 0}
	g.t = 0
	g.insulin = 0
	g.carbs = 0
}

// Step implements Model.
func (g *Glucosym) Step(insulinUPerH, carbsGPerMin, dt float64) {
	if insulinUPerH < 0 {
		insulinUPerH = 0
	}
	if carbsGPerMin < 0 {
		carbsGPerMin = 0
	}
	g.insulin = insulinUPerH
	g.carbs = carbsGPerMin
	y := g.y[:]
	g.integ.Integrate(g.derivs, g.t, g.t+dt, 1.0, y)
	g.t += dt
	if g.y[0] < 10 { // physiological floor; the hazard fires long before
		g.y[0] = 10
	}
}

func (g *Glucosym) derivs(_ float64, y, dydt []float64) {
	p := g.params
	G, X, Ip, Q := y[0], y[1], y[2], y[3]
	ra := p.KAbs * Q * p.CarbF // mg/dL/min from gut absorption
	dydt[0] = -p.P1*(G-p.Gb) - X*G + ra
	dydt[1] = -p.P2*X + p.P3*(Ip-p.Ib)
	dydt[2] = -p.N*Ip + p.Ki*g.insulin/60
	dydt[3] = -p.KAbs*Q + g.carbs
}
