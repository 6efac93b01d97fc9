package sim

import "math/rand"

// RNG is a named, independently-seeded random stream. Components that need
// randomness (jitter models, loss processes, traffic generators) each take
// their own stream so that adding randomness to one component never
// perturbs the draws seen by another. This keeps experiments comparable
// across configurations: the "GTT instability" draws are identical whether
// or not the controller is adaptive.
type RNG struct {
	*rand.Rand
	src *lazySource
}

// Streams derives named RNGs from a master seed.
type Streams struct {
	seed int64
}

// NewStreams returns a factory for named random streams derived from seed.
func NewStreams(seed int64) *Streams { return &Streams{seed: seed} }

// Stream returns an independent generator for the given name. The same
// (seed, name) pair always yields the same sequence. The generator is
// seeded on its first draw: its state is 4.9 KB, and most streams — one
// per direction of every simulated link — are never drawn from, because
// a fixed-delay, lossless line draws nothing. Seeding late draws the
// same sequence as seeding now.
func (s *Streams) Stream(name string) *RNG {
	// Mix the master seed with the name hash. splitmix64 finalization
	// decorrelates nearby seeds.
	r := &RNG{}
	r.src = &lazySource{rng: r, seed: int64(splitmix64(uint64(s.seed) ^ fnv64(name)))}
	r.Rand = rand.New(r.src)
	return r
}

// Seeded reports whether the stream has been drawn from.
func (r *RNG) Seeded() bool { return r.src.src != nil }

// lazySource is a math/rand source seeded on its first draw. Seeding
// also gives its stream a generator over the seeded source, so later
// draws skip this wrapper; a draw already under way finishes through it,
// on the same source.
type lazySource struct {
	rng  *RNG
	seed int64
	src  rand.Source64 // nil until the first draw
}

func (l *lazySource) get() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
		l.rng.Rand = rand.New(l.src)
	}
	return l.src
}

func (l *lazySource) Int63() int64   { return l.get().Int63() }
func (l *lazySource) Uint64() uint64 { return l.get().Uint64() }

// Seed restarts the stream from seed, seeded again on its next draw.
func (l *lazySource) Seed(seed int64) { l.seed, l.src = seed, nil }

func fnv64(name string) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Normal draws a normal variate with the given mean and standard deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.NormFloat64()
}

// Exp draws an exponential variate with the given mean (not rate).
func (r *RNG) Exp(mean float64) float64 {
	return r.ExpFloat64() * mean
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
