package gate

import "cmp"

// DampingConfig tunes BGP-style capacity-flap damping for channels
// whose SNR oscillates around a threshold. A channel accumulates
// penalty on every rung change; while its penalty exceeds
// SuppressThreshold the gate refuses to raise it — no restore, no
// upgrade offer (forced downgrades always execute: availability
// first). Penalty decays multiplicatively every round.
type DampingConfig struct {
	// PenaltyPerChange is added on each executed change (default 1000).
	PenaltyPerChange float64
	// SuppressThreshold suppresses upgrades while exceeded (default
	// 2500 — i.e. roughly three changes in quick succession).
	SuppressThreshold float64
	// ReuseThreshold re-enables upgrades once the decayed penalty
	// falls below it (default 1000).
	ReuseThreshold float64
	// DecayFactor multiplies the penalty each round (default 0.7).
	DecayFactor float64
}

// withDefaults fills zero values.
func (d DampingConfig) withDefaults() DampingConfig {
	d.PenaltyPerChange = cmp.Or(d.PenaltyPerChange, 1000)
	d.SuppressThreshold = cmp.Or(d.SuppressThreshold, 2500)
	d.ReuseThreshold = cmp.Or(d.ReuseThreshold, 1000)
	d.DecayFactor = cmp.Or(d.DecayFactor, 0.7)
	return d
}

// EnableDamping turns on flap damping with the given configuration
// (zero fields take their defaults). Call it before the first Round.
func (g *Gate) EnableDamping(d DampingConfig) {
	d = d.withDefaults()
	g.damping = &d
	g.penalty = make([]float64, len(g.conf))
	g.suppressed = make([]bool, len(g.conf))
}

// Suppressed reports whether raising channel c is currently damped
// (false for a channel out of range or with damping off).
func (g *Gate) Suppressed(c int) bool {
	return uint(c) < uint(len(g.suppressed)) && g.suppressed[c]
}

// allowed applies damping to raising channel c.
func (g *Gate) allowed(c int) bool { return !g.Suppressed(c) }

// decay advances the damping clocks; settle calls it once per round.
func (g *Gate) decay() {
	if g.damping == nil {
		return
	}
	for c := range g.penalty {
		g.penalty[c] *= g.damping.DecayFactor
		if g.suppressed[c] && g.penalty[c] < g.damping.ReuseThreshold {
			g.suppressed[c] = false
		}
	}
}

// charge records an executed change on channel c.
func (g *Gate) charge(c int) {
	if g.damping == nil {
		return
	}
	g.penalty[c] += g.damping.PenaltyPerChange
	if g.penalty[c] >= g.damping.SuppressThreshold {
		g.suppressed[c] = true
	}
}
