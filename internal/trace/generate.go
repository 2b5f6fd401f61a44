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
// about the Azure Functions Invocation Trace 2021: 424 functions and a
// heavy-tailed per-function rate distribution, so that the high, medium and
// low classes of §8.4 are all populated. Every function's arrivals are
// Poisson at a constant rate: there is no bursty share and no diurnal
// swing. Bursty arrivals come only from GenerateFunction's flag.
type GenConfig struct {
	// NumFunctions is the number of function timelines. Default 424.
	NumFunctions int
	// Duration is the trace window. Default 24h.
	Duration time.Duration
	// MedianDailyRate is the median invocations/day. The rates follow a
	// log-normal distribution around it with sigma sigmaLog. Default 300,
	// which puts the mean near the Azure trace's ~4,670 invocations/day per
	// function (1,980,951 invocations / 424 functions / day) while
	// populating all three §8.4 load classes.
	MedianDailyRate float64
}

// The arrival model's constants.
const (
	// sigmaLog is the log-normal sigma of per-function daily rates.
	sigmaLog = 2.2
	// burstMultiplier is a bursty function's rate multiplier inside a burst
	// episode. The quiet-state rate is scaled so the long-run average stays
	// at the function's base rate.
	burstMultiplier = 5.0
	// burstDutyCycle is the fraction of time a bursty function spends in
	// burst state: a mean burst of meanBurst, a mean quiet spell of ~9 min.
	burstDutyCycle = 0.1
	// meanBurst is the mean burst episode, in seconds.
	meanBurst = 60.0
)

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
		daily := c.MedianDailyRate * math.Exp(rng.NormFloat64()*sigmaLog)
		if daily > 4e5 {
			daily = 4e5 // cap ultra-hot tails to keep traces tractable
		}
		// Each function draws once for a bursty share that is zero, so
		// every function is Poisson; the draw keeps the traces' RNG stream.
		rng.Float64()
		f := &Function{ID: fmt.Sprintf("func-%03d", i)}
		f.Invocations = genArrivals(rng, c.Duration, daily, false)
		t.Functions = append(t.Functions, f)
	}
	return t
}

// genArrivals simulates one function's arrival process over the window by
// thinning a Poisson process. The instantaneous rate is the base rate, times
// a two-state Markov-modulated multiplier for a bursty function.
func genArrivals(rng *rand.Rand, window time.Duration, dailyRate float64, bursty bool) []simtime.Time {
	baseRate := dailyRate / (24 * 3600) // per second
	if baseRate <= 0 {
		return nil
	}
	// Peak rate for thinning must bound the instantaneous rate.
	peak := baseRate
	if bursty {
		peak *= burstMultiplier
	}

	// Burst-state machine: exponential dwell times chosen so the duty cycle
	// matches burstDutyCycle.
	meanQuiet := meanBurst * (1 - burstDutyCycle) / burstDutyCycle
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
	if bursty && rng.Float64() < burstDutyCycle {
		inBurst = true
	}
	stateUntil = rng.ExpFloat64() * meanQuiet

	horizon := window.Seconds()
	var out []simtime.Time
	now := 0.0
	for {
		now += rng.ExpFloat64() / peak
		if now >= horizon {
			break
		}
		rate := baseRate
		if bursty {
			nextState(now)
			if inBurst {
				rate *= burstMultiplier
			} else {
				// Compensate so the average stays near dailyRate.
				rate *= (1 - burstDutyCycle*burstMultiplier) / (1 - burstDutyCycle)
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
	window := GenConfig{Duration: duration}.withDefaults().Duration // zero is a day
	daily := 86400 / meanGap.Seconds()
	return &Function{ID: id, Invocations: genArrivals(rng, window, daily, bursty)}
}
