package generator

import (
	"encoding/binary"
	"math/bits"

	"github.com/sith-lab/amulet-go/internal/mem"
)

// counterGamma is the splitmix64 stream increment (the golden-ratio odd
// constant); coprime to 2^64, so the counter walk visits every state.
const counterGamma = 0x9E3779B97F4A7C15

// counterRand is the PRNG stream generation and mutation draw from: a
// counter-based splitmix64 stream whose output n is Mix64(base + n*gamma),
// a pure function of (seed, n). It implements isa.RNG for the frontend
// hooks. Compared to math/rand's lagged-Fibonacci source it needs no
// 607-word state to seed — campaigns build a fresh stream per work unit,
// and rand.(*rngSource).Seed showed up in campaign profiles right next to
// the draw costs — and each draw is a handful of arithmetic ops with no
// table walk.
type counterRand struct {
	base uint64
	n    uint64
}

func newCounterRand(seed int64) *counterRand {
	// Finalize the seed once so adjacent seeds (campaigns use seed, seed+1,
	// ...) start from decorrelated bases.
	return &counterRand{base: mem.Mix64(uint64(seed))}
}

// Uint64 returns the next 64 uniform bits.
func (c *counterRand) Uint64() uint64 {
	c.n++
	return mem.Mix64(c.base + c.n*counterGamma)
}

// Intn returns a uniform int in [0, n) via Lemire's multiply-shift range
// reduction. The bias against a 64-bit draw is below 2^-49 for every n the
// generator uses — invisible next to the fuzzer's own sampling noise — and
// deterministic, which is all reproducibility needs.
func (c *counterRand) Intn(n int) int {
	if n <= 0 {
		panic("generator: Intn with non-positive bound")
	}
	hi, _ := bits.Mul64(c.Uint64(), uint64(n))
	return int(hi)
}

// Float64 returns a uniform float in [0, 1) with 53 random bits.
func (c *counterRand) Float64() float64 {
	return float64(c.Uint64()>>11) / (1 << 53)
}

// Read fills p with random bytes, eight per draw.
func (c *counterRand) Read(p []byte) {
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, c.Uint64())
		p = p[8:]
	}
	if len(p) > 0 {
		v := c.Uint64()
		for i := range p {
			p[i] = byte(v >> (8 * uint(i)))
		}
	}
}

// Perm returns a random permutation of [0, n) (inside-out Fisher–Yates).
func (c *counterRand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := c.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Draws returns how many draws the stream has served — the "PRNG
// counter" campaign checkpoints record per work unit. It is exactly the
// splitmix counter position, so two runs of the same unit that report the
// same count consumed the identical stream prefix.
func (c *counterRand) Draws() uint64 { return c.n }
