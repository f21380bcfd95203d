package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random source (splitmix64 /
// xorshift-style). The simulator does not use math/rand so that the
// experiment harness has identical streams regardless of the Go release and
// so each component can own an independent, seedable stream.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is remapped so
// the stream is never degenerate.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits (splitmix64).
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// ExpTime returns an exponentially distributed duration with the given mean,
// used for Poisson flow inter-arrival times. The result is at least 1 ns so
// that successive arrivals always advance the clock.
func (r *Rand) ExpTime(mean Time) Time {
	if mean <= 0 {
		return 1
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	d := FromFloat(-math.Log(u) * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
