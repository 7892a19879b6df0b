package tsp

import (
	"cmp"
	"math"
	"slices"

	"mobicol/internal/geom"
	"mobicol/internal/graph"
	"mobicol/internal/par"
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

// completeListsMax is the largest instance whose greedy-edge candidate
// lists are complete (k = n−1): every pair of points is a candidate, the
// candidate pass ends in one Hamiltonian path, and the construction is
// exact greedy matching over all n(n−1)/2 edges. At 64 points that is
// 2,016 edges, no more work than the grid-backed k-nearest build. Larger
// instances take the neighborK nearest, an O(nk) candidate set. The limit
// is a property of the input size, not a tuning value: any limit gives a
// valid tour, and the instance size alone decides which one is built.
const completeListsMax = 64

// greedyListK is the candidate-list width the greedy-edge construction
// of n points takes.
func greedyListK(n int) int {
	if n <= completeListsMax {
		return n - 1
	}
	return neighborK
}

// GreedyEdge builds a tour by adding the shortest edges that keep degree
// <= 2 and avoid premature subtours (the "greedy matching" construction;
// typically a few percent shorter than nearest neighbour). The candidate
// edges are every pair up to completeListsMax points and each point's
// neighborK nearest above it; leftover path fragments are linked
// nearest-first.
func GreedyEdge(pts []geom.Point) Tour {
	n := len(pts)
	if n <= 3 {
		return trivialTour(n)
	}
	t, _ := greedyEdgeSparse(pts, NeighborLists(pts, greedyListK(n), par.Pool{}), par.Pool{})
	return t
}

// candEdge is one sparse greedy-edge candidate: u < v, w their squared
// distance.
type candEdge struct {
	u, v int32
	w    float64
}

// compareCandEdges orders candidate edges by (w, u, v). The order is
// total on distinct edges, so the sorted sequence — and thus the tour —
// does not depend on how the candidates were assembled.
func compareCandEdges(a, b candEdge) int {
	if c := cmp.Compare(a.w, b.w); c != 0 {
		return c
	}
	if c := cmp.Compare(a.u, b.u); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// greedyEdgeSparse is greedy-edge over the candidate edges of neigh, the
// point set's k-nearest lists (neighborLists, one width k for every
// point). With complete lists (k = n−1) the candidate pass links one
// Hamiltonian path. With k-nearest lists it is O(nk) edges instead of
// O(n²): almost every edge greedy matching uses connects near
// neighbours, so the tours are near-identical in length and the local
// searches erase the rest of the gap. That pass generally leaves a forest
// of path fragments (a point whose k nearest are all full keeps degree
// < 2), so a second pass links fragment endpoints nearest-first through
// a kd-tree. The path is closed by linking its two ends. It also returns
// the number of candidate edges.
//
// Each candidate edge appears once: a mutual pair {u, v} with v < u is
// taken from v's list only. Its second copy could never be linked — once
// the first copy has been seen, u and v are connected or one of them is
// full — so dropping it leaves the tour unchanged. Instances of
// parMinPoints or more points build and sort one run of candidates per
// pool chunk and merge the runs; under the total (w, u, v) order the
// merged sequence is the one a single global sort gives.
func greedyEdgeSparse(pts []geom.Point, neigh [][]int, pool par.Pool) (Tour, int) {
	n := len(pts)
	k := len(neigh[0])
	complete := k == n-1 // every pair is mutual
	if n < parMinPoints {
		pool = par.Seq()
	}
	// Each chunk appends into its own window of one backing array, sized
	// for every list entry of its points.
	backing := make([]candEdge, n*k)
	runs := par.MapChunks(pool, n, func(lo, hi int) []candEdge {
		run := backing[lo*k : lo*k : hi*k]
		for u, list := range neigh[lo:hi] {
			u += lo
			for _, v := range list {
				if v < u && (complete || slices.Contains(neigh[v], u)) {
					continue
				}
				a, b := min(u, v), max(u, v)
				run = append(run, candEdge{int32(a), int32(b), pts[a].Dist2(pts[b])})
			}
		}
		slices.SortFunc(run, compareCandEdges)
		return run
	})
	edges := mergeCandEdges(runs)
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
	if added < n-1 {
		// Link the remaining fragments: for the lowest-index endpoint,
		// attach the nearest endpoint of another fragment, until one path
		// remains. Degrees only grow, so only the points of degree < 2
		// now can ever be linked, and the kd-tree indexes those alone.
		// ends ascends, so the tree's lower-index tie-break is the lower
		// point id, as it would be over all points.
		var ends []int
		for i, d := range deg {
			if d < 2 {
				ends = append(ends, i)
			}
		}
		endPts := make([]geom.Point, len(ends))
		for e, i := range ends {
			endPts[e] = pts[i]
		}
		kt := geom.NewKDTree(endPts)
		scan := 0
		for added < n-1 {
			for deg[ends[scan]] >= 2 {
				scan++
			}
			u := ends[scan]
			e, _ := kt.Nearest(pts[u], func(e int) bool {
				j := ends[e]
				return j == u || deg[j] >= 2 || uf.Connected(u, j)
			})
			link(u, ends[e])
		}
	}
	// Close the Hamiltonian path into a cycle: its two ends, lower first.
	a, b := -1, -1
	for i, d := range deg {
		if d < 2 {
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
	return tour, len(edges)
}

// mergeCandEdges merges sorted runs of candidate edges into one sorted
// slice, pairing neighbouring runs each round: O(E log runs) work.
func mergeCandEdges(runs [][]candEdge) []candEdge {
	for len(runs) > 1 {
		next := runs[:0]
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				next = append(next, runs[i])
				break
			}
			a, b := runs[i], runs[i+1]
			out := make([]candEdge, 0, len(a)+len(b))
			for len(a) > 0 && len(b) > 0 {
				if compareCandEdges(b[0], a[0]) < 0 {
					out, b = append(out, b[0]), b[1:]
				} else {
					out, a = append(out, a[0]), a[1:]
				}
			}
			next = append(next, append(append(out, a...), b...))
		}
		runs = next
	}
	return runs[0]
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
