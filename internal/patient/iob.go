package patient

// IOBCalculator estimates insulin on board (IOB) from the history of insulin
// delivered above or below the scheduled basal rate, the way OpenAPS-style
// controllers compute it. Each recorded delta decays linearly to zero over
// the duration of insulin action (DIA); temp-basal rates below basal produce
// negative contributions, so IOB (and its derivative) can be negative — the
// safety rules in Table I of the paper depend on that sign.
type IOBCalculator struct {
	// DIA is the duration of insulin action in minutes. Zero selects the
	// 240-minute default.
	DIA float64

	entries []iobEntry
}

type iobEntry struct {
	t     float64 // delivery time (minutes)
	units float64 // insulin above (+) or below (−) basal
}

const defaultDIA = 240

func (c *IOBCalculator) dia() float64 {
	if c.DIA <= 0 {
		return defaultDIA
	}
	return c.DIA
}

// Record registers units of insulin delivered at time t (minutes), expressed
// relative to the scheduled basal delivery for that interval.
func (c *IOBCalculator) Record(t, units float64) {
	if units == 0 {
		return
	}
	c.entries = append(c.entries, iobEntry{t: t, units: units})
}

// IOB returns the estimated insulin on board at time t.
func (c *IOBCalculator) IOB(t float64) float64 {
	dia := c.dia()
	var iob float64
	// Prune expired entries in place while summing.
	keep := c.entries[:0]
	for _, e := range c.entries {
		age := t - e.t
		if age >= dia {
			continue
		}
		keep = append(keep, e)
		if age < 0 {
			continue // future entry (callers replaying traces)
		}
		iob += e.units * (1 - age/dia)
	}
	c.entries = keep
	return iob
}
