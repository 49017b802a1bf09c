package patient

import (
	"math/rand"

	"repro/internal/ode"
)

// T1DSParams are the coefficients of the Hovorka-style model standing in for
// the UVA-Padova T1DS2013 simulator. Internal units: glucose in mmol
// (masses) and mmol/L (concentration), insulin in U and mU/L, time in
// minutes. BG is reported in mg/dL (1 mmol/L = 18 mg/dL).
type T1DSParams struct {
	ProfileID int

	WeightKg float64
	K12      float64 // glucose transfer rate (1/min)
	Ka1      float64 // insulin action deactivation rates (1/min)
	Ka2      float64
	Ka3      float64
	SIT      float64 // insulin sensitivities (per mU/L)
	SID      float64
	SIE      float64
	Ke       float64 // plasma insulin elimination (1/min)
	VIperKg  float64 // insulin distribution volume (L/kg)
	VGperKg  float64 // glucose distribution volume (L/kg)
	EGP0     float64 // endogenous glucose production at zero insulin (mmol/kg/min)
	F01      float64 // non-insulin-dependent glucose flux (mmol/kg/min)
	TMaxI    float64 // subcutaneous insulin absorption time constant (min)
	TMaxG    float64 // gut absorption time constant (min)
	AG       float64 // carbohydrate bioavailability (0–1)
	GTarget  float64 // steady-state glucose (mmol/L)
}

// VI returns the insulin distribution volume in litres.
func (p T1DSParams) VI() float64 { return p.VIperKg * p.WeightKg }

// VG returns the glucose distribution volume in litres.
func (p T1DSParams) VG() float64 { return p.VGperKg * p.WeightKg }

func nominalT1DS() T1DSParams {
	return T1DSParams{
		WeightKg: 70,
		K12:      0.066,
		Ka1:      0.006,
		Ka2:      0.06,
		Ka3:      0.03,
		SIT:      51.2e-4,
		SID:      8.2e-4,
		SIE:      520e-4,
		Ke:       0.138,
		VIperKg:  0.12,
		VGperKg:  0.16,
		EGP0:     0.0161,
		F01:      0.0097,
		TMaxI:    55,
		TMaxG:    40,
		AG:       0.8,
		GTarget:  7.0, // 126 mg/dL
	}
}

// T1DSProfileCount is the number of simulated patient profiles.
const T1DSProfileCount = 20

// T1DSProfile returns the deterministic parameter set for profile
// id ∈ [0, 20). A fixed-seed RNG perturbs body weight (55–95 kg), insulin
// sensitivities (±30%), absorption time constants (±20%) and the target
// glucose (6.1–8.3 mmol/L ≈ 110–150 mg/dL).
func T1DSProfile(id int) (T1DSParams, error) {
	if err := validateProfile(id, T1DSProfileCount); err != nil {
		return T1DSParams{}, err
	}
	rng := rand.New(rand.NewSource(2000 + int64(id)))
	vary := func(v, frac float64) float64 { return v * (1 + frac*(2*rng.Float64()-1)) }
	p := nominalT1DS()
	p.ProfileID = id
	p.WeightKg = 55 + 40*rng.Float64()
	p.SIT = vary(p.SIT, 0.3)
	p.SID = vary(p.SID, 0.3)
	p.SIE = vary(p.SIE, 0.3)
	p.Ke = vary(p.Ke, 0.15)
	p.TMaxI = vary(p.TMaxI, 0.2)
	p.TMaxG = vary(p.TMaxG, 0.2)
	p.EGP0 = vary(p.EGP0, 0.15)
	p.F01 = vary(p.F01, 0.15)
	p.GTarget = 6.1 + 2.2*rng.Float64()
	return p, nil
}

// T1DS is the Hovorka-style plant. State vector:
//
//	y[0] = Q1 glucose mass, accessible compartment (mmol)
//	y[1] = Q2 glucose mass, non-accessible compartment (mmol)
//	y[2] = S1 subcutaneous insulin depot 1 (U)
//	y[3] = S2 subcutaneous insulin depot 2 (U)
//	y[4] = I  plasma insulin (mU/L)
//	y[5] = x1 insulin action on transport (1/min)
//	y[6] = x2 insulin action on disposal (1/min)
//	y[7] = x3 insulin action on EGP (dimensionless)
//	y[8] = D1 gut compartment 1 (mmol)
//	y[9] = D2 gut compartment 2 (mmol)
type T1DS struct {
	params T1DSParams
	integ  *ode.Integrator
	y      [10]float64
	t      float64
	basal  float64 // U/h holding the steady state

	insulin float64 // U/h
	carbs   float64 // g/min
}

var _ Model = (*T1DS)(nil)

// mmol of glucose per gram of carbohydrate.
const mmolPerGramCarb = 1000.0 / 180.0

// NewT1DS constructs the plant at the steady state for params.GTarget.
func NewT1DS(params T1DSParams, method ode.Method) *T1DS {
	t := &T1DS{params: params, integ: ode.New(method)}
	t.basal = t.solveBasal()
	t.Reset()
	return t
}

// NewT1DSProfile is shorthand for profile lookup + construction with RK4.
func NewT1DSProfile(id int) (*T1DS, error) {
	p, err := T1DSProfile(id)
	if err != nil {
		return nil, err
	}
	return NewT1DS(p, ode.RK4), nil
}

// Name implements Model.
func (t *T1DS) Name() string { return "t1ds" }

// ProfileID implements Model.
func (t *T1DS) ProfileID() int { return t.params.ProfileID }

// Params returns the plant coefficients.
func (t *T1DS) Params() T1DSParams { return t.params }

// BG implements Model.
func (t *T1DS) BG() float64 { return t.y[0] / t.params.VG() * 18 }

// BasalRate implements Model.
func (t *T1DS) BasalRate() float64 { return t.basal }

// steadyInsulin computes the plasma-insulin level I (mU/L) that holds glucose
// at G0 (mmol/L), by bisection on the Q1 balance.
func (t *T1DS) steadyInsulin(g0 float64) float64 {
	p := t.params
	vg := p.VG()
	q1 := g0 * vg
	f01c := p.F01 * p.WeightKg
	if g0 < 4.5 {
		f01c *= g0 / 4.5
	}
	fr := 0.0
	if g0 >= 9 {
		fr = 0.003 * (g0 - 9) * vg
	}
	balance := func(i float64) float64 {
		x1 := p.SIT * i
		x2 := p.SID * i
		x3 := p.SIE * i
		q2 := x1 * q1 / (p.K12 + x2)
		egp := p.EGP0 * p.WeightKg * (1 - x3)
		if egp < 0 {
			egp = 0
		}
		return -f01c - x1*q1 + p.K12*q2 - fr + egp
	}
	lo, hi := 0.0, 1.0/p.SIE // x3 ≤ 1 keeps EGP non-negative
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		if balance(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// solveBasal converts the steady plasma insulin into an infusion rate (U/h):
// I_ss = 1000·(u/60)/(V_I·k_e)  ⇒  u = I·V_I·k_e·60/1000.
func (t *T1DS) solveBasal() float64 {
	i := t.steadyInsulin(t.params.GTarget)
	return i * t.params.VI() * t.params.Ke * 60 / 1000
}

// Reset implements Model.
func (t *T1DS) Reset() {
	p := t.params
	iSS := t.steadyInsulin(p.GTarget)
	uPerMin := t.basal / 60
	q1 := p.GTarget * p.VG()
	x1, x2, x3 := p.SIT*iSS, p.SID*iSS, p.SIE*iSS
	q2 := 0.0
	if p.K12+x2 > 0 {
		q2 = x1 * q1 / (p.K12 + x2)
	}
	t.y = [10]float64{
		q1, q2,
		uPerMin * p.TMaxI, uPerMin * p.TMaxI,
		iSS,
		x1, x2, x3,
		0, 0,
	}
	t.t = 0
	t.insulin = 0
	t.carbs = 0
}

// Step implements Model.
func (t *T1DS) Step(insulinUPerH, carbsGPerMin, dt float64) {
	if insulinUPerH < 0 {
		insulinUPerH = 0
	}
	if carbsGPerMin < 0 {
		carbsGPerMin = 0
	}
	t.insulin = insulinUPerH
	t.carbs = carbsGPerMin
	t.integ.Integrate(t.derivs, t.t, t.t+dt, 1.0, t.y[:])
	t.t += dt
	minQ1 := 10.0 / 18.0 * t.params.VG() // 10 mg/dL floor
	if t.y[0] < minQ1 {
		t.y[0] = minQ1
	}
	for i := range t.y {
		if t.y[i] < 0 && i != 0 {
			t.y[i] = 0
		}
	}
}

func (t *T1DS) derivs(_ float64, y, dydt []float64) {
	p := t.params
	vg, vi := p.VG(), p.VI()
	q1, q2, s1, s2, ins := y[0], y[1], y[2], y[3], y[4]
	x1, x2, x3 := y[5], y[6], y[7]
	d1, d2 := y[8], y[9]

	g := q1 / vg
	f01c := p.F01 * p.WeightKg
	if g < 4.5 {
		f01c *= g / 4.5
	}
	fr := 0.0
	if g >= 9 {
		fr = 0.003 * (g - 9) * vg
	}
	ug := d2 / p.TMaxG
	egp := p.EGP0 * p.WeightKg * (1 - x3)
	if egp < 0 {
		egp = 0
	}

	dydt[0] = -f01c - x1*q1 + p.K12*q2 - fr + ug + egp
	dydt[1] = x1*q1 - (p.K12+x2)*q2
	dydt[2] = t.insulin/60 - s1/p.TMaxI
	dydt[3] = (s1 - s2) / p.TMaxI
	dydt[4] = 1000*s2/(p.TMaxI*vi) - p.Ke*ins
	dydt[5] = p.SIT*p.Ka1*ins - p.Ka1*x1
	dydt[6] = p.SID*p.Ka2*ins - p.Ka2*x2
	dydt[7] = p.SIE*p.Ka3*ins - p.Ka3*x3
	dydt[8] = p.AG*t.carbs*mmolPerGramCarb - d1/p.TMaxG
	dydt[9] = (d1 - d2) / p.TMaxG
}
