package tsp

import (
	"sort"

	"mobicol/internal/geom"
	"mobicol/internal/graph"
)

// Christofides builds a tour in the Christofides style: minimum spanning
// tree, a perfect matching on the MST's odd-degree vertices, an Euler
// circuit of the combined multigraph, and shortcutting of repeats.
//
// The matching is greedy (closest unmatched pairs first) rather than
// minimum-weight, so the classic 1.5-approximation guarantee does not
// carry over — but the 2-approximation of the double-tree bound (the
// preorder walk of the MST) still holds empirically, and the
// construction is typically several percent shorter than that walk
// because the Euler walk wastes no doubled edges.
func Christofides(pts []geom.Point) Tour {
	n := len(pts)
	if n <= 3 {
		return trivialTour(n)
	}
	parent, _ := graph.CompleteEuclideanMST(n, func(i, j int) float64 { return pts[i].Dist(pts[j]) })
	var edges []graph.Edge
	deg := make([]int, n)
	for v, p := range parent {
		if p >= 0 {
			edges = append(edges, graph.Edge{U: p, V: v})
			deg[p]++
			deg[v]++
		}
	}
	// Odd-degree vertices (always an even count).
	var odd []int
	for v, d := range deg {
		if d%2 == 1 {
			odd = append(odd, v)
		}
	}
	// Greedy perfect matching on the odd set: closest pairs first.
	type pair struct {
		u, v int
		d    float64
	}
	pairs := make([]pair, 0, len(odd)*(len(odd)-1)/2)
	for i := 0; i < len(odd); i++ {
		for j := i + 1; j < len(odd); j++ {
			pairs = append(pairs, pair{odd[i], odd[j], pts[odd[i]].Dist2(pts[odd[j]])})
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].d < pairs[b].d })
	matched := make([]bool, n)
	for _, p := range pairs {
		if !matched[p.u] && !matched[p.v] {
			matched[p.u] = true
			matched[p.v] = true
			edges = append(edges, graph.Edge{U: p.u, V: p.v})
		}
	}
	walk, err := graph.EulerCircuit(n, edges, 0)
	if err != nil {
		// Cannot happen: MST+matching has all-even degrees and is
		// connected; fall back defensively to a valid tour.
		return NearestNeighbor(pts, 0)
	}
	// Shortcut repeated vertices.
	seen := make([]bool, n)
	tour := make(Tour, 0, n)
	for _, v := range walk {
		if !seen[v] {
			seen[v] = true
			tour = append(tour, v)
		}
	}
	return tour
}
