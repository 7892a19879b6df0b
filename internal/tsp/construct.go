package tsp

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"mobicol/internal/geom"
	"mobicol/internal/graph"
)

// NearestNeighbor builds a tour by repeatedly travelling to the closest
// unvisited point, starting from start. This is the construction the
// paper's simulations use for the final tour over polling points.
func NearestNeighbor(pts []geom.Point, start int) Tour {
	n := len(pts)
	if n <= 2 {
		return trivialTour(n)
	}
	kt := geom.NewKDTree(pts)
	visited := make([]bool, n)
	tour := make(Tour, 0, n)
	cur := start
	visited[cur] = true
	tour = append(tour, cur)
	for len(tour) < n {
		next, _ := kt.Nearest(pts[cur], func(i int) bool { return visited[i] })
		visited[next] = true
		tour = append(tour, next)
		cur = next
	}
	return tour
}

// greedyEdgeDenseMax bounds the all-pairs greedy-edge construction: above
// it, the O(n²) edge list (n²/2 × 24 bytes, plus the sort) stops being a
// rounding error — at n=10k it would be 1.2 GB — and GreedyEdge switches
// to the k-nearest sparse construction instead. Committed baselines all
// sit far below the threshold, so their tours are unchanged.
const greedyEdgeDenseMax = 2048

// GreedyEdge builds a tour by adding the globally shortest edges that keep
// degree <= 2 and avoid premature subtours (the "greedy matching"
// construction; typically a few percent shorter than nearest neighbour).
// Instances above greedyEdgeDenseMax points use the sparse k-nearest
// variant: same greedy rule over the union of each point's k-nearest
// candidate edges, with leftover path fragments linked nearest-first.
func GreedyEdge(pts []geom.Point) Tour {
	t, _ := greedyEdge(pts)
	return t
}

// greedyEdge is GreedyEdge that also returns the k-nearest lists the
// sparse construction built (nil on the dense path), so Solve can hand
// them to the local searches instead of building the same lists twice.
func greedyEdge(pts []geom.Point) (Tour, [][]int) {
	n := len(pts)
	if n <= 3 {
		return trivialTour(n), nil
	}
	if n > greedyEdgeDenseMax {
		neigh := neighborLists(pts, neighborK)
		return greedyEdgeSparse(pts, neigh), neigh
	}
	type edge struct {
		u, v int
		w    float64
	}
	edges := make([]edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, edge{i, j, pts[i].Dist2(pts[j])})
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].w < edges[b].w })
	deg := make([]int, n)
	uf := graph.NewUnionFind(n)
	adj := make([][2]int, n)
	for i := range adj {
		adj[i] = [2]int{-1, -1}
	}
	added := 0
	for _, e := range edges {
		if added == n {
			break
		}
		if deg[e.u] >= 2 || deg[e.v] >= 2 {
			continue
		}
		if uf.Connected(e.u, e.v) && added != n-1 {
			continue // would close a subtour early
		}
		uf.Union(e.u, e.v)
		adj[e.u][deg[e.u]] = e.v
		adj[e.v][deg[e.v]] = e.u
		deg[e.u]++
		deg[e.v]++
		added++
	}
	// Walk the cycle.
	tour := make(Tour, 0, n)
	prev, cur := -1, 0
	for len(tour) < n {
		tour = append(tour, cur)
		next := adj[cur][0]
		if next == prev {
			next = adj[cur][1]
		}
		prev, cur = cur, next
	}
	return tour, nil
}

// greedyEdgeSparse is greedy-edge over the k-nearest candidate edge set:
// O(nk) edges instead of O(n²). Almost every edge the dense construction
// actually uses connects near neighbours, so the tours are near-identical
// in length; the local searches erase the rest of the gap. The candidate
// pass generally leaves a forest of path fragments (a point whose k
// nearest are all full keeps degree < 2), so a second pass links fragment
// endpoints nearest-first through a kd-tree, then closes the cycle.
// neigh is the point set's k-nearest lists (neighborLists).
func greedyEdgeSparse(pts []geom.Point, neigh [][]int) Tour {
	n := len(pts)
	type edge struct {
		u, v int32
		w    float64
	}
	edges := make([]edge, 0, n*neighborK)
	for u, list := range neigh {
		for _, v := range list {
			// Normalise so both directions of a mutual pair collide; the
			// duplicate is skipped by the degree/component checks.
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			edges = append(edges, edge{int32(a), int32(b), pts[a].Dist2(pts[b])})
		}
	}
	// Ties sorted by (w, u, v) keep the edge order — and thus the tour —
	// independent of neighbour-list assembly order.
	slices.SortFunc(edges, func(a, b edge) int {
		if c := cmp.Compare(a.w, b.w); c != 0 {
			return c
		}
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	deg := make([]int, n)
	uf := graph.NewUnionFind(n)
	adj := make([][2]int, n)
	for i := range adj {
		adj[i] = [2]int{-1, -1}
	}
	added := 0
	link := func(u, v int) {
		uf.Union(u, v)
		adj[u][deg[u]] = v
		adj[v][deg[v]] = u
		deg[u]++
		deg[v]++
		added++
	}
	for _, e := range edges {
		if added == n-1 {
			break
		}
		u, v := int(e.u), int(e.v)
		if deg[u] >= 2 || deg[v] >= 2 || uf.Connected(u, v) {
			continue
		}
		link(u, v)
	}
	// Link the remaining fragments: for the lowest-index endpoint, attach
	// the nearest endpoint of another fragment, until one path remains.
	kt := geom.NewKDTree(pts)
	scan := 0
	for added < n-1 {
		u := -1
		for i := scan; i < n; i++ {
			if deg[i] < 2 {
				u, scan = i, i
				break
			}
		}
		v, _ := kt.Nearest(pts[u], func(j int) bool {
			return j == u || deg[j] >= 2 || uf.Connected(u, j)
		})
		link(u, v)
	}
	// Close the Hamiltonian path into a cycle.
	a, b := -1, -1
	for i := 0; i < n; i++ {
		if deg[i] < 2 {
			if a < 0 {
				a = i
			} else {
				b = i
			}
		}
	}
	link(a, b)
	tour := make(Tour, 0, n)
	prev, cur := -1, 0
	for len(tour) < n {
		tour = append(tour, cur)
		next := adj[cur][0]
		if next == prev {
			next = adj[cur][1]
		}
		prev, cur = cur, next
	}
	return tour
}

// CheapestInsertion builds a tour by starting from the two closest points
// and repeatedly inserting the point whose best insertion position costs
// the least extra length.
func CheapestInsertion(pts []geom.Point) Tour {
	n := len(pts)
	if n <= 3 {
		return trivialTour(n)
	}
	// Seed with the closest pair.
	bi, bj, best := 0, 1, math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := pts[i].Dist2(pts[j]); d < best {
				bi, bj, best = i, j, d
			}
		}
	}
	tour := Tour{bi, bj}
	in := make([]bool, n)
	in[bi], in[bj] = true, true
	for len(tour) < n {
		bestPt, bestPos, bestCost := -1, -1, math.Inf(1)
		for p := 0; p < n; p++ {
			if in[p] {
				continue
			}
			for i := 0; i < len(tour); i++ {
				j := (i + 1) % len(tour)
				cost := pts[tour[i]].Dist(pts[p]) + pts[p].Dist(pts[tour[j]]) - pts[tour[i]].Dist(pts[tour[j]])
				if cost < bestCost {
					bestPt, bestPos, bestCost = p, i+1, cost
				}
			}
		}
		tour = append(tour, 0)
		copy(tour[bestPos+1:], tour[bestPos:])
		tour[bestPos] = bestPt
		in[bestPt] = true
	}
	return tour
}

// HullInsertion builds a tour starting from the convex hull of the points
// (which every optimal Euclidean tour visits in hull order) and inserts
// the interior points by cheapest insertion.
func HullInsertion(pts []geom.Point) Tour {
	n := len(pts)
	if n <= 3 {
		return trivialTour(n)
	}
	hull := geom.ConvexHull(pts)
	if len(hull) < 3 {
		return CheapestInsertion(pts)
	}
	// Map hull points back to indices (first match wins; duplicates are
	// inserted later like interior points).
	in := make([]bool, n)
	var tour Tour
	for _, hp := range hull {
		for i, p := range pts {
			if !in[i] && p.Eq(hp) {
				tour = append(tour, i)
				in[i] = true
				break
			}
		}
	}
	for len(tour) < n {
		bestPt, bestPos, bestCost := -1, -1, math.Inf(1)
		for p := 0; p < n; p++ {
			if in[p] {
				continue
			}
			for i := 0; i < len(tour); i++ {
				j := (i + 1) % len(tour)
				cost := pts[tour[i]].Dist(pts[p]) + pts[p].Dist(pts[tour[j]]) - pts[tour[i]].Dist(pts[tour[j]])
				if cost < bestCost {
					bestPt, bestPos, bestCost = p, i+1, cost
				}
			}
		}
		tour = append(tour, 0)
		copy(tour[bestPos+1:], tour[bestPos:])
		tour[bestPos] = bestPt
		in[bestPt] = true
	}
	return tour
}

// DoubleTree builds the classic MST 2-approximation: compute a minimum
// spanning tree, walk it in preorder, and shortcut repeated vertices. The
// result is guaranteed to be at most twice the optimal tour length in any
// metric space.
func DoubleTree(pts []geom.Point) Tour {
	n := len(pts)
	if n <= 3 {
		return trivialTour(n)
	}
	parent, _ := graph.CompleteEuclideanMST(n, func(i, j int) float64 { return pts[i].Dist(pts[j]) })
	tree := graph.NewTreeFromParents(0, parent)
	return Tour(tree.Preorder())
}
