package tsp

import (
	"mobicol/internal/geom"
	"mobicol/internal/par"
	"mobicol/internal/rng"
)

// SolveBest runs a multi-start search: the configured construction plus
// restarts-1 nearest-neighbour tours from random starting points, each
// polished by the configured local search, keeping the shortest. Restarts
// buy tour quality linearly in time; the planners use a single start by
// default and the harness exposes this as a quality knob.
func SolveBest(pts []geom.Point, opts Options, restarts int, seed uint64) Tour {
	return SolveBestPool(pts, opts, restarts, seed, par.Seq())
}

// SolveBestPool is SolveBest with the restarts spread across a worker
// pool. Each restart draws from its own rng substream (split from seed
// before any worker starts) and polishes against a shared read-only
// neighbour list, and the winner is picked by an ordered reduction with
// strict improvement — so the returned tour is byte-identical for every
// pool size.
func SolveBestPool(pts []geom.Point, opts Options, restarts int, seed uint64, pool par.Pool) Tour {
	best := Solve(pts, opts)
	if restarts <= 1 || len(pts) < 5 {
		return best
	}
	bestLen := best.Length(pts)
	streams := par.Streams(seed, restarts-1)
	neigh := NeighborLists(pts, neighborK, pool)
	tours := par.Map(pool, restarts-1, func(r int) Tour {
		t := NearestNeighbor(pts, streams[r].Intn(len(pts)))
		if opts.TwoOpt {
			TwoOptNeighbors(pts, t, neigh)
		}
		if opts.OrOpt {
			OrOptNeighbors(pts, t, neigh)
			if opts.TwoOpt {
				TwoOptNeighbors(pts, t, neigh)
			}
		}
		return t
	})
	// Strict improvement in restart order: the lowest restart index wins
	// ties, exactly as the sequential loop folded.
	for _, t := range tours {
		if l := t.Length(pts); l < bestLen {
			best, bestLen = t, l
		}
	}
	return best
}

// Perturb applies a random double-bridge move (the classic 4-opt kick used
// by iterated local search): the tour is cut into four arcs A B C D and
// reconnected as A C B D. Unlike 2-opt moves, a double bridge cannot be
// undone by 2-opt, so it escapes local optima while preserving most of the
// tour's structure.
func Perturb(tour Tour, src *rng.Source) {
	n := len(tour)
	if n < 8 {
		return
	}
	// Three distinct interior cut points in increasing order.
	p1 := 1 + src.Intn(n-3)
	p2 := p1 + 1 + src.Intn(n-p1-2)
	p3 := p2 + 1 + src.Intn(n-p2-1)
	out := make(Tour, 0, n)
	out = append(out, tour[:p1]...)
	out = append(out, tour[p2:p3]...)
	out = append(out, tour[p1:p2]...)
	out = append(out, tour[p3:]...)
	copy(tour, out)
}

// SolveILS runs iterated local search: start from Solve, then repeatedly
// double-bridge-kick the incumbent and re-optimise, accepting
// improvements. kicks bounds the iterations.
func SolveILS(pts []geom.Point, opts Options, kicks int, seed uint64) Tour {
	best := Solve(pts, opts)
	if kicks <= 0 || len(pts) < 8 {
		return best
	}
	bestLen := best.Length(pts)
	src := rng.New(seed)
	neigh := NeighborLists(pts, neighborK, par.Pool{})
	cur := best.Clone()
	for k := 0; k < kicks; k++ {
		Perturb(cur, src)
		if opts.TwoOpt {
			TwoOptNeighbors(pts, cur, neigh)
		}
		if opts.OrOpt {
			OrOptNeighbors(pts, cur, neigh)
		}
		if l := cur.Length(pts); l < bestLen {
			best, bestLen = cur.Clone(), l
		} else {
			copy(cur, best) // restart the kick from the incumbent
		}
	}
	return best
}
