// Package randx provides deterministic, splittable randomness and the
// distribution samplers used by the synthetic ISP models.
//
// Everything in wearwild derives from a single study seed. To keep results
// reproducible regardless of evaluation order, the package never uses a
// shared global stream: callers split independent child streams keyed by a
// stable label and entity id (for example "traffic"/userID). Two streams
// split with different keys are statistically independent; the same key
// always yields the same stream.
package randx

import (
	"math"
	"math/rand/v2"
	"slices"
)

// Rand is a deterministic random stream. It wraps a PCG generator from
// math/rand/v2 and adds the samplers the simulation models need.
type Rand struct {
	src *rand.Rand
	// seed material retained so the stream can be split.
	hi, lo uint64
}

// New returns the root stream for a study seed.
func New(seed uint64) *Rand {
	return newFrom(seed, 0x9e3779b97f4a7c15)
}

func newFrom(hi, lo uint64) *Rand {
	hi = splitmix(hi)
	lo = splitmix(lo ^ 0xda942042e4dd58b5)
	return &Rand{src: rand.New(rand.NewPCG(hi, lo)), hi: hi, lo: lo}
}

// Split derives an independent child stream keyed by a stable string label
// and a numeric id. Splitting does not advance the parent stream, so the
// order in which children are split (or whether they are used at all) never
// perturbs sibling streams.
func (r *Rand) Split(label string, id uint64) *Rand {
	h := r.hi
	for i := 0; i < len(label); i++ {
		h = splitmix(h ^ uint64(label[i]))
	}
	return newFrom(h^id, r.lo^splitmix(id))
}

// splitmix is the SplitMix64 finalizer; a strong 64-bit mixing function.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) IntN(n int) int { return r.src.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// NormFloat64 returns a standard normal variate.
func (r *Rand) NormFloat64() float64 { return r.src.NormFloat64() }

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.src.NormFloat64()
}

// LogNormal returns a lognormal variate where the underlying normal has
// mean mu and standard deviation sigma. The median of the distribution is
// exp(mu) and the mean is exp(mu + sigma^2/2).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.src.NormFloat64())
}

// LogNormalMedian returns a lognormal variate parameterised by its median
// rather than mu; convenient when a model is calibrated by a reported
// median (for example the 3 KB median transaction size).
func (r *Rand) LogNormalMedian(median, sigma float64) float64 {
	return r.LogNormal(math.Log(median), sigma)
}

// Pareto returns a Pareto (type I) variate with minimum xm and shape alpha.
// Heavy-tailed: used for the long tails of app installs and usage.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := 1 - r.src.Float64() // in (0, 1]
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a Poisson variate with the given mean. It uses Knuth's
// product method for small means and a normal approximation (rounded and
// clamped at zero) for large ones, which is adequate for workload counts.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := math.Round(r.Normal(mean, math.Sqrt(mean)))
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.src.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// PermInto fills dst with a random permutation of [0, n), reusing dst's
// backing array when it has capacity. The draw sequence is identical to
// Perm's (an identity fill followed by a Fisher–Yates shuffle), so the two
// are interchangeable without perturbing the stream.
func (r *Rand) PermInto(dst []int, n int) []int {
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = i
	}
	r.src.Shuffle(n, func(i, j int) { dst[i], dst[j] = dst[j], dst[i] })
	return dst
}

// Shuffle randomises the order of n elements via the supplied swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// ZipfWeights returns weights proportional to 1/(rank+1)^s for n ranks.
// Rank 0 is the heaviest. The weights sum to 1.
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
