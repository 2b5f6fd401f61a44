package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/faasmem/faasmem/internal/simtime"
	"github.com/faasmem/faasmem/internal/simtime/lazyrand"
)

// GenConfig parameterizes the synthetic Azure-like trace generator.
//
// The defaults are calibrated against the statistics the paper publishes
// about the Azure Functions Invocation Trace 2021: 424 functions, a
// heavy-tailed per-function rate distribution (so that high/medium/low
// classes per §8.4 are all populated), bursty arrivals for part of the
// population (the paper's high-load traces "exhibit a sudden increase and
// decrease"), and a diurnal load swing.
type GenConfig struct {
	// NumFunctions is the number of function timelines. Default 424.
	NumFunctions int
	// Duration is the trace window. Default 24h.
	Duration time.Duration
	// MedianDailyRate is the median invocations/day. The rates follow a
	// log-normal distribution around it. Default 300, which with the default
	// SigmaLog puts the mean near the Azure trace's ~4,670 invocations/day
	// per function (1,980,951 invocations / 424 functions / day) while
	// populating all three §8.4 load classes.
	MedianDailyRate float64
	// SigmaLog is the log-normal sigma of per-function rates. Default 2.2.
	SigmaLog float64
	// BurstyFraction is the share of functions with Markov-modulated bursty
	// arrivals rather than plain Poisson. Default 0.35.
	BurstyFraction float64
	// BurstMultiplier is the rate multiplier inside a burst episode.
	// Default 5. With the default duty cycle the quiet-state rate is scaled
	// so the long-run average stays at the function's base rate.
	BurstMultiplier float64
	// BurstDutyCycle is the fraction of time a bursty function spends in
	// burst state. Default 0.1 (mean burst 60 s, mean quiet ~9 min).
	BurstDutyCycle float64
	// DiurnalAmplitude in [0, 1) scales the day/night rate swing. Default
	// 0.4 (rate varies ±40% over the day).
	DiurnalAmplitude float64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.NumFunctions <= 0 {
		c.NumFunctions = 424
	}
	if c.Duration <= 0 {
		c.Duration = 24 * time.Hour
	}
	if c.MedianDailyRate <= 0 {
		c.MedianDailyRate = 300
	}
	if c.SigmaLog <= 0 {
		c.SigmaLog = 2.2
	}
	if c.BurstyFraction < 0 || c.BurstyFraction > 1 {
		c.BurstyFraction = 0.35
	}
	if c.BurstMultiplier <= 1 {
		c.BurstMultiplier = 5
	}
	if c.BurstDutyCycle <= 0 || c.BurstDutyCycle >= 1 {
		c.BurstDutyCycle = 0.1
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		c.DiurnalAmplitude = 0.4
	}
	return c
}

// Generate produces a synthetic trace from cfg using the given seed. Equal
// seeds yield identical traces.
func Generate(cfg GenConfig, seed int64) *Trace {
	c := cfg.withDefaults()
	rng := lazyrand.New(seed)
	t := &Trace{Duration: c.Duration}
	for i := 0; i < c.NumFunctions; i++ {
		// Log-normal daily rate, clamped to at least one invocation/day
		// equivalent over the window.
		daily := c.MedianDailyRate * math.Exp(rng.NormFloat64()*c.SigmaLog)
		if daily > 4e5 {
			daily = 4e5 // cap ultra-hot tails to keep traces tractable
		}
		bursty := rng.Float64() < c.BurstyFraction
		f := &Function{ID: fmt.Sprintf("func-%03d", i)}
		f.Invocations = genArrivals(rng, c, daily, bursty)
		t.Functions = append(t.Functions, f)
	}
	return t
}

// genArrivals simulates one function's arrival process by thinning a
// time-varying Poisson process. The instantaneous rate combines the base
// rate, a diurnal sinusoid, and (for bursty functions) a two-state
// Markov-modulated multiplier.
func genArrivals(rng *rand.Rand, c GenConfig, dailyRate float64, bursty bool) []simtime.Time {
	baseRate := dailyRate / (24 * 3600) // per second
	if baseRate <= 0 {
		return nil
	}
	// Peak rate for thinning must bound the instantaneous rate.
	peak := baseRate * (1 + c.DiurnalAmplitude)
	if bursty {
		peak *= c.BurstMultiplier
	}

	// Burst-state machine: exponential dwell times chosen so the duty cycle
	// matches BurstDutyCycle with a mean burst of 60 s.
	const meanBurst = 60.0 // seconds
	meanQuiet := meanBurst * (1 - c.BurstDutyCycle) / c.BurstDutyCycle
	inBurst := false
	stateUntil := 0.0
	nextState := func(now float64) {
		for stateUntil <= now {
			if inBurst {
				inBurst = false
				stateUntil += rng.ExpFloat64() * meanQuiet
			} else {
				inBurst = true
				stateUntil += rng.ExpFloat64() * meanBurst
			}
		}
	}
	// Randomize initial state/phase.
	if bursty && rng.Float64() < c.BurstDutyCycle {
		inBurst = true
	}
	stateUntil = rng.ExpFloat64() * meanQuiet

	horizon := c.Duration.Seconds()
	var out []simtime.Time
	now := 0.0
	for {
		now += rng.ExpFloat64() / peak
		if now >= horizon {
			break
		}
		rate := baseRate * (1 + c.DiurnalAmplitude*math.Sin(2*math.Pi*now/86400))
		if bursty {
			nextState(now)
			if inBurst {
				rate *= c.BurstMultiplier
			} else {
				// Compensate so the average stays near dailyRate.
				rate *= (1 - c.BurstDutyCycle*c.BurstMultiplier) / (1 - c.BurstDutyCycle)
				if rate < 0 {
					rate = baseRate * 0.05
				}
			}
		}
		if rng.Float64() < rate/peak {
			out = append(out, simtime.Time(now*float64(time.Second)))
		}
	}
	return out
}

// GenerateFunction builds a single-function trace with the given mean
// inter-arrival gap and burstiness over the window — convenient for focused
// experiments (Fig. 13's common vs bursty cases) without a full 424-function
// trace.
func GenerateFunction(id string, duration time.Duration, meanGap time.Duration, bursty bool, seed int64) *Function {
	rng := lazyrand.New(seed)
	c := GenConfig{Duration: duration}.withDefaults()
	daily := 86400 / meanGap.Seconds()
	return &Function{ID: id, Invocations: genArrivals(rng, c, daily, bursty)}
}
