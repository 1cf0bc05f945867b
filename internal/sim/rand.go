package sim

// Rand is a small, fast, deterministic pseudo-random generator
// (xorshift64*). Workload generators use it instead of math/rand so that
// every experiment is reproducible from its seed regardless of Go version.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is remapped to
// a fixed non-zero constant because xorshift has a zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n called with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	return r.PermInto(nil, n)
}

// PermInto fills p (truncated, then grown as needed — pass a reusable
// buffer to avoid the allocation) with a pseudo-random permutation of
// [0, n) and returns it. It consumes the generator identically to Perm.
func (r *Rand) PermInto(p []int, n int) []int {
	p = p[:0]
	for i := 0; i < n; i++ {
		p = append(p, i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
