package tsp

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"testing"

	"mobicol/internal/geom"
	"mobicol/internal/graph"
	"mobicol/internal/obs"
	"mobicol/internal/par"
	"mobicol/internal/rng"
)

// testPools are the pool sizes the equivalence tests compare; Seq is the
// oracle each of the others must reproduce.
func testPools() []par.Pool {
	return []par.Pool{par.Seq(), par.Workers(2), par.Workers(3), par.Workers(8)}
}

// pointSets returns the point shapes the equivalence tests run on, n
// points each: uniform and clustered at the paper's density, an integer
// lattice (many equal distances, so every tie-break matters) and a
// uniform set in which a quarter of the points are duplicated.
func pointSets(seed uint64, n int) []namedPoints {
	src := rng.New(seed)
	side := 20 * math.Sqrt(float64(n))
	clustered := make([]geom.Point, n)
	centres := randPts(src, 1+n/200, side)
	for i := range clustered {
		c := centres[src.Intn(len(centres))]
		clustered[i] = geom.Pt(src.NormMeanStd(c.X, side/50), src.NormMeanStd(c.Y, side/50))
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	lattice := make([]geom.Point, n)
	for i := range lattice {
		lattice[i] = geom.Pt(float64(i%cols), float64(i/cols))
	}
	dup := randPts(src, n, side)
	for i := 0; i < n/4; i++ {
		dup[n-1-i] = dup[src.Intn(n-n/4)]
	}
	return []namedPoints{
		{"uniform", randPts(src, n, side)},
		{"clustered", clustered},
		{"lattice", lattice},
		{"duplicated", dup},
	}
}

type namedPoints struct {
	name string
	pts  []geom.Point
}

// sortedNeighbors is the reference k-nearest list of point i: every
// other point, fully sorted by squared distance, ties toward the lower
// index.
func sortedNeighbors(pts []geom.Point, i, k int) []int {
	cand := make([]int, 0, len(pts)-1)
	for j := range pts {
		if j != i {
			cand = append(cand, j)
		}
	}
	sort.Slice(cand, func(a, b int) bool {
		da, db := pts[cand[a]].Dist2(pts[i]), pts[cand[b]].Dist2(pts[i])
		if da < db {
			return true
		}
		if db < da {
			return false
		}
		return cand[a] < cand[b]
	})
	return cand[:k:k]
}

// TestNeighborListsMatchFullSort pins the grid-backed construction and
// the complete lists (k = n−1) to the quadratic oracle: same neighbours,
// same order, for every point (every 97th point above the parallel
// threshold, where the oracle is slow), on every point shape and at
// every pool size.
func TestNeighborListsMatchFullSort(t *testing.T) {
	check := func(name string, pts []geom.Point, k, stride int) {
		t.Helper()
		lists := make([][][]int, 0, len(testPools()))
		for _, pool := range testPools() {
			lists = append(lists, NeighborLists(pts, k, pool))
		}
		k = min(k, len(pts)-1)
		for i := 0; i < len(pts); i += stride {
			want := sortedNeighbors(pts, i, k)
			for p, pool := range testPools() {
				if got := lists[p][i]; !slices.Equal(got, want) {
					t.Fatalf("%s workers=%d point %d: %v, want %v", name, pool.Size(), i, got, want)
				}
			}
		}
	}
	for _, n := range []int{5, 30, 200} {
		for seed := uint64(5); seed < 8; seed++ {
			check(fmt.Sprintf("n=%d seed=%d", n, seed), randPts(rng.New(seed), n, 300), neighborK, 1)
		}
	}
	for _, set := range pointSets(9, 600) {
		check(set.name+" n=600", set.pts, neighborK, 1)
	}
	for _, set := range pointSets(11, completeListsMax) {
		check(set.name+" complete", set.pts, completeListsMax-1, 1)
	}
	for _, set := range pointSets(10, parMinPoints+900) {
		check(fmt.Sprintf("%s n=%d", set.name, len(set.pts)), set.pts, neighborK, 97)
	}
}

// TestNeighborListsEvalsPoolIndependent: the tsp.knn_evals work count is
// a per-chunk sum, the same for every pool size.
func TestNeighborListsEvalsPoolIndependent(t *testing.T) {
	pts := randPts(rng.New(12), parMinPoints+500, 1500)
	_, want := neighborLists(pts, neighborK, par.Seq())
	if want < int64(len(pts)*neighborK) {
		t.Fatalf("%d evaluations for %d points, want at least k per point", want, len(pts))
	}
	for _, pool := range testPools() {
		if _, got := neighborLists(pts, neighborK, pool); got != want {
			t.Fatalf("workers=%d: %d evaluations, sequential %d", pool.Size(), got, want)
		}
	}
}

// greedyEdgeDenseOracle is greedy matching over all n(n-1)/2 edges, the
// reference the complete-list construction must reproduce tour for tour.
func greedyEdgeDenseOracle(pts []geom.Point) Tour {
	n := len(pts)
	if n <= 3 {
		return trivialTour(n)
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

// TestGreedyEdgeMatchesDenseOracle pins the complete-list construction
// to greedy matching over every edge: up to completeListsMax points,
// greedy-edge returns the dense oracle's exact tour.
func TestGreedyEdgeMatchesDenseOracle(t *testing.T) {
	for n := 4; n <= completeListsMax; n++ {
		for seed := uint64(1); seed <= 4; seed++ {
			pts := randPts(rng.New(seed*1000+uint64(n)), n, 200)
			if got, want := greedyEdge(pts), greedyEdgeDenseOracle(pts); !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: %v, want %v", n, seed, got, want)
			}
		}
	}
}

// greedyEdgeSparseOracle is the reference sparse greedy-edge construction:
// every list entry as a candidate edge (a mutual pair twice), one global
// sort, and a kd-tree over all points for the fragment links.
func greedyEdgeSparseOracle(pts []geom.Point, neigh [][]int) Tour {
	n := len(pts)
	type edge struct {
		u, v int32
		w    float64
	}
	edges := make([]edge, 0, n*neighborK)
	for u, list := range neigh {
		for _, v := range list {
			a, b := min(u, v), max(u, v)
			edges = append(edges, edge{int32(a), int32(b), pts[a].Dist2(pts[b])})
		}
	}
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

// TestGreedyEdgeSparseMatchesOracle pins the deduplicated, run-merged
// construction with its endpoint-only kd-tree to the reference, tour for
// tour, on every point shape, on both sides of the parallel threshold and
// at every pool size. Solve must likewise return one tour for every pool.
func TestGreedyEdgeSparseMatchesOracle(t *testing.T) {
	for _, n := range []int{2300, 6000} {
		for _, set := range pointSets(uint64(n), n) {
			name, pts := set.name, set.pts
			neigh := NeighborLists(pts, neighborK, par.Seq())
			want := greedyEdgeSparseOracle(pts, neigh)
			if err := want.validate(n); err != nil {
				t.Fatalf("%s n=%d: oracle: %v", name, n, err)
			}
			pairs := map[[2]int]bool{}
			for u, list := range neigh {
				for _, v := range list {
					pairs[[2]int{min(u, v), max(u, v)}] = true
				}
			}
			for _, pool := range testPools() {
				got, edges := greedyEdgeSparse(pts, neigh, pool)
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d workers=%d: tour differs from the oracle", name, n, pool.Size())
				}
				if edges != len(pairs) {
					t.Fatalf("%s n=%d workers=%d: %d candidate edges, want the %d distinct pairs", name, n, pool.Size(), edges, len(pairs))
				}
			}
			// Below parMinPoints every pool runs sequentially, so Solve is
			// compared across pools above it only.
			if n >= parMinPoints {
				opts := DefaultOptions()
				opts.Pool = par.Workers(8)
				if !slices.Equal(Solve(pts, opts), Solve(pts, DefaultOptions())) {
					t.Fatalf("%s n=%d: Solve's tour depends on the pool", name, n)
				}
			}
		}
	}
}

// TestNeighborListsCoincidentPoints exercises the degenerate-geometry
// fallback: every point at the same location still yields full lists.
func TestNeighborListsCoincidentPoints(t *testing.T) {
	pts := randPts(rng.New(1), 6, 0) // Uniform(0,0) puts every point at the origin
	lists := NeighborLists(pts, neighborK, par.Pool{})
	for i, l := range lists {
		if len(l) != 5 {
			t.Fatalf("point %d: %d neighbours, want 5", i, len(l))
		}
		for _, j := range l {
			if j == i {
				t.Fatalf("point %d lists itself", i)
			}
		}
	}
}

// TestNeighborListsCapped: every list is exactly k long with capacity k,
// so an append to one list reallocates instead of overwriting the next
// list in the shared backing array.
func TestNeighborListsCapped(t *testing.T) {
	for _, tc := range []struct {
		n     int
		width float64
	}{{2, 100}, {5, 100}, {200, 300}, {6, 0}} {
		pts := randPts(rng.New(3), tc.n, tc.width)
		k := min(neighborK, tc.n-1)
		lists := NeighborLists(pts, neighborK, par.Pool{})
		for i, l := range lists {
			if len(l) != k || cap(l) != k {
				t.Fatalf("n=%d point %d: len %d cap %d, want both %d", tc.n, i, len(l), cap(l), k)
			}
		}
		next := lists[1][0]
		_ = append(lists[0], -1)
		if lists[1][0] != next {
			t.Fatalf("n=%d: append to list 0 overwrote list 1", tc.n)
		}
	}
}

// TestSolveSharesSparseNeighborLists pins the shared-list path: Solve
// hands the construction's candidate lists to the local searches as
// their neighborK-wide prefixes, and must return the same tour as the
// construction followed by the three improvement passes over separately
// built k = neighborK lists. Up to completeListsMax points the
// construction is the dense oracle's greedy matching.
func TestSolveSharesSparseNeighborLists(t *testing.T) {
	opts := DefaultOptions()
	for _, n := range []int{13, 40, completeListsMax, 2348} {
		for seed := uint64(31); seed < 33; seed++ {
			pts := randPts(rng.New(seed), n, 2000)
			want := greedyEdge(pts)
			if n <= completeListsMax {
				want = greedyEdgeDenseOracle(pts)
			}
			neigh := NeighborLists(pts, neighborK, par.Pool{})
			var s Scratch
			s.TwoOpt(pts, want, neigh)
			s.OrOpt(pts, want, neigh)
			s.TwoOpt(pts, want, neigh)
			got := Solve(pts, opts)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d seed=%d: Solve's tour differs from the construction + separate lists", n, seed)
			}
		}
	}
}

// TestSolveGreedyWorkLinear keeps the O(n²) construction from coming
// back: a traced greedy Solve of 2000 points records its k-nearest
// evaluations and at most neighborK candidate edges per point.
func TestSolveGreedyWorkLinear(t *testing.T) {
	n := 2000
	pts := randPts(rng.New(41), n, 25*math.Sqrt(float64(n)))
	tr := obs.New(io.Discard)
	sp := tr.Start("solve")
	opts := DefaultOptions()
	opts.Obs = sp
	Solve(pts, opts)
	sp.End()
	counts := map[string]int64{}
	for _, c := range tr.Registry().Snapshot().Counters {
		counts[c.Name] = c.Value
	}
	if _, ok := counts["tsp.knn_evals"]; !ok {
		t.Fatalf("no tsp.knn_evals counter in %v", counts)
	}
	if got, ok := counts["tsp.greedy_edges"]; !ok || got > int64(neighborK*n) {
		t.Fatalf("tsp.greedy_edges = %d (recorded %v), want at most %d", got, ok, neighborK*n)
	}
}

// TestOrOptNeighborsNeverLengthens guards the new neighbour-restricted
// pass: it must only ever shorten the tour and leave it a permutation.
func TestOrOptNeighborsNeverLengthens(t *testing.T) {
	for seed := uint64(60); seed < 66; seed++ {
		pts := randPts(rng.New(seed), 90, 200)
		tour := NearestNeighbor(pts, 0)
		neigh := NeighborLists(pts, neighborK, par.Pool{})
		before := tour.Length(pts)
		var sc Scratch
		moves := sc.OrOpt(pts, tour, neigh)
		after := tour.Length(pts)
		if err := tour.validate(len(pts)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if after > before+1e-9 {
			t.Fatalf("seed %d: lengthened %.4f -> %.4f", seed, before, after)
		}
		if moves > 0 && !(after < before) {
			t.Fatalf("seed %d: %d moves claimed but no improvement", seed, moves)
		}
	}
}

func BenchmarkSolve(b *testing.B) {
	for _, n := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := randPts(rng.New(1), n, 200*math.Sqrt(float64(n)/100))
			opts := DefaultOptions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Solve(pts, opts)
			}
		})
	}
}
