// Package xrand holds the repository's one deterministic PRNG and one
// string hash: the splitmix64 generator (a stateful Stream and the
// stateless Mix it steps with) and FNV-1a 64. Every seeded schedule,
// fault plan, jitter stream and site hash draws from here, so a
// (seed, input) pair replays bit-identically everywhere and no caller
// depends on math/rand stream stability.
package xrand

// golden is the splitmix64 increment (2^64 / phi).
const golden = 0x9e3779b97f4a7c15

// Mix is the stateless splitmix64 step: it advances x by the golden
// increment and returns the finalized word. Hashing chains of Mix
// calls give replayable, concurrency-safe per-site decisions.
func Mix(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a splitmix64 generator. Its value is the generator state;
// the caller chooses the seeding expression. Not safe for concurrent
// use.
type Stream uint64

// Next returns the next 64-bit output.
func (s *Stream) Next() uint64 {
	x := Mix(uint64(*s))
	*s += golden
	return x
}

// Intn returns a value in [0, n) by reduction modulo n; n must be > 0.
func (s *Stream) Intn(n int) int { return int(s.Next() % uint64(n)) }

// Float returns a uniform float64 in [0, 1) from the low 53 bits.
func (s *Stream) Float() float64 { return float64(s.Next()%(1<<53)) / (1 << 53) }

// Hash is FNV-1a 64 over the bytes of s.
func Hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
