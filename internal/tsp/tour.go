// Package tsp implements the travelling-salesman engine used to turn a set
// of polling points into a short closed data-gathering tour. It offers
// three constructions (nearest neighbour, greedy edge and Christofides),
// 2-opt and Or-opt local search, exact solvers for small instances
// (Held–Karp dynamic programming and an MST-bounded branch & bound) and
// the spanning-tree lower bound.
//
// All tours are closed (the collector returns to the sink). A tour is a
// permutation of point indices; its length includes the final edge back to
// the first point.
package tsp

import "mobicol/internal/geom"

// Tour is an ordering of the points [0, n). The tour is closed: after the
// last index the collector returns to the first.
type Tour []int

// Length returns the closed tour length over pts.
func (t Tour) Length(pts []geom.Point) geom.Meters {
	if len(t) < 2 {
		return 0
	}
	total := 0.0
	for i := 0; i < len(t); i++ {
		j := (i + 1) % len(t)
		total += pts[t[i]].Dist(pts[t[j]])
	}
	return geom.Meters(total)
}

// Clone returns an independent copy of t.
func (t Tour) Clone() Tour { return append(Tour(nil), t...) }

// RotateTo rotates the tour in place so that it begins at the stop with
// index start. Closed-tour length is rotation invariant; the collector
// conventionally departs from the sink, so planners rotate the sink first.
// The rotation is the classic three-reversal, so no buffer is needed.
func (t Tour) RotateTo(start int) {
	pos := -1
	for i, v := range t {
		if v == start {
			pos = i
			break
		}
	}
	if pos <= 0 {
		return
	}
	reverseTour(t[:pos])
	reverseTour(t[pos:])
	reverseTour(t)
}

func reverseTour(t Tour) {
	for i, j := 0, len(t)-1; i < j; i, j = i+1, j-1 {
		t[i], t[j] = t[j], t[i]
	}
}

// trivialTour returns the identity ordering for n points, handling the
// degenerate sizes every solver must accept.
func trivialTour(n int) Tour {
	t := make(Tour, n)
	for i := range t {
		t[i] = i
	}
	return t
}
