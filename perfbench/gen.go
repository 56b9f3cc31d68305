package main

import (
	"math"
	"math/rand/v2"
)

// newRNG returns the generator for one input stream. Every stream is
// derived from the workload seed and a fixed stream number, so the same
// seed always gives the same tables, keys and parameters.
func newRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// zipf draws keys 1..n with the skewed popularity of Gray et al.'s
// "Quickly generating billion-record synthetic databases" (the generator
// YCSB uses). math/rand's Zipf needs an exponent above 1; the OLTP
// workloads use theta = 0.99. The rank-to-key map is a seeded permutation,
// so hot keys are spread over the table's pages instead of packed at its
// head.
type zipf struct {
	n                 int
	alpha, zetan, eta float64
	half              float64 // 1 + 0.5^theta: the cumulative weight of ranks 0 and 1
	keys              []int   // rank -> key
}

func newZipf(n int, theta float64, rng *rand.Rand) *zipf {
	zetan := 0.0
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	z := &zipf{
		n:     n,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half:  zeta2,
		keys:  rng.Perm(n),
	}
	for i := range z.keys {
		z.keys[i]++
	}
	return z
}

// next draws one key.
func (z *zipf) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	rank := 0
	switch {
	case uz < 1:
	case uz < z.half:
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	return z.keys[rank]
}

// pad returns the filler string of row id: width letters that depend only
// on the seed and the id, so a reader can check the row it got back.
func pad(seed uint64, id int, width int) string {
	b := make([]byte, width)
	for i := range b {
		b[i] = 'a' + byte(mix(seed, id*width+i)%26)
	}
	return string(b)
}

// mix hashes (seed, i) to 64 well-mixed bits (the splitmix64 finalizer).
func mix(seed uint64, i int) uint64 {
	x := seed ^ uint64(i)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
