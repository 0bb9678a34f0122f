package gen

import (
	"kimbap/internal/graph"
	"kimbap/internal/par"
)

// Counter-based pseudo-randomness for parallel generation. A sequential
// PRNG makes edge i depend on all draws before it, serializing the
// generator; instead every candidate edge gets its own splitmix64 stream
// keyed by (seed, candidate index). A worker can generate any chunk of the
// candidate space independently, and the resulting graph is a pure function
// of (parameters, seed) — bit-identical at every worker count.

// genWorkers is the worker count the generators pass to par (0 = all
// cores). Tests force specific counts to check bit-identity across them.
var genWorkers int

// SetWorkers fixes the generator worker count (0 = all cores) and returns
// the previous setting. Generated graphs are identical at every setting;
// tests use this to prove it.
func SetWorkers(w int) (prev int) {
	prev, genWorkers = genWorkers, w
	return prev
}

// splitmix64 is the SplitMix64 finalizer: a bijective mixer whose output
// over sequential inputs passes BigCrush.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// edgeRand is the per-candidate stream: state seeded from (seed, counter),
// advanced by the golden-ratio increment and finalized per draw.
type edgeRand struct{ s uint64 }

func newEdgeRand(seed, counter int64) edgeRand {
	return edgeRand{s: splitmix64(uint64(seed)) ^ splitmix64(uint64(counter)^0xd1b54a32d192ed03)}
}

func (r *edgeRand) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix64(r.s)
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits.
func (r *edgeRand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). The modulo bias is below 2^-32
// for every n the generators use.
func (r *edgeRand) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

// fillColumns materializes the surviving candidates of cand(0..count)
// into exact-size edge columns, in candidate order. cand must be a pure
// function of its index (its edgeRand is the only randomness source);
// pass one counts each worker's static chunk's survivors, an exclusive
// scan gives the chunk write starts, and pass two regenerates and scatters
// — cheaper than buffering candidates, and trivially deterministic.
func fillColumns(count int, weighted bool,
	cand func(c int) (src, dst graph.NodeID, w float64, ok bool)) (srcs, dsts []graph.NodeID, ws []float64) {

	workers := par.Resolve(genWorkers)
	if workers > count {
		workers = count
	}
	if count == 0 {
		return nil, nil, nil
	}
	counts := make([]int64, workers)
	par.Do(workers, func(wk int) {
		lo, hi := par.Range(wk, workers, count)
		var c int64
		for i := lo; i < hi; i++ {
			if _, _, _, ok := cand(i); ok {
				c++
			}
		}
		counts[wk] = c
	})
	var total int64
	for wk := range counts {
		c := counts[wk]
		counts[wk] = total
		total += c
	}
	srcs = make([]graph.NodeID, total)
	dsts = make([]graph.NodeID, total)
	if weighted {
		ws = make([]float64, total)
	}
	par.Do(workers, func(wk int) {
		at := counts[wk]
		lo, hi := par.Range(wk, workers, count)
		for i := lo; i < hi; i++ {
			s, d, w, ok := cand(i)
			if !ok {
				continue
			}
			srcs[at], dsts[at] = s, d
			if weighted {
				ws[at] = w
			}
			at++
		}
	})
	return srcs, dsts, ws
}

// candidates is a generator's candidate edge space over numNodes nodes:
// cand(c) for c in [0, count) is the c-th candidate edge, dropped when ok
// is false.
type candidates struct {
	numNodes, count int
	weighted        bool
	cand            func(c int) (src, dst graph.NodeID, w float64, ok bool)
}

// build materializes the surviving candidates with fillColumns and builds
// their symmetric closure, duplicates collapsed to the minimum weight, at
// the generator worker count.
func (cs candidates) build() *graph.Graph {
	srcs, dsts, ws := fillColumns(cs.count, cs.weighted, cs.cand)
	return graph.BuildSymmetric(cs.numNodes, srcs, dsts, ws, genWorkers)
}
