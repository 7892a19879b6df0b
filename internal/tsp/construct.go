package tsp

import (
	"cmp"
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
