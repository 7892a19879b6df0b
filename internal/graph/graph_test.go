package graph

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mobicol/internal/rng"
)

// line returns the path graph 0-1-2-...-(n-1) with unit weights.
func line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	// Each edge is stored once in each endpoint's list.
	want := [][]int{{1}, {0, 2}, {1}, nil}
	for v := range want {
		if !slices.Equal(g.adj[v], want[v]) {
			t.Fatalf("adj[%d] = %v, want %v", v, g.adj[v], want[v])
		}
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	New(3).AddEdge(1, 1)
}

func TestVertexRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range vertex did not panic")
		}
	}()
	New(3).AddEdge(0, 3)
}

func TestBFSLine(t *testing.T) {
	g := line(5)
	r := BFS(g, 0)
	for i := 0; i < 5; i++ {
		if r.Dist[i] != i {
			t.Fatalf("Dist[%d] = %d", i, r.Dist[i])
		}
	}
	// The parent pointers walk back along the line to the source.
	for i := 0; i < 5; i++ {
		if r.Parent[i] != i-1 {
			t.Fatalf("Parent[%d] = %d, want %d", i, r.Parent[i], i-1)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	r := BFS(g, 0)
	if r.Dist[2] != -1 || r.Dist[3] != -1 {
		t.Fatal("unreachable vertices reported reached")
	}
	if r.Parent[2] != -1 || r.Parent[3] != -1 {
		t.Fatal("unreachable vertices have parents")
	}
}

func TestMultiBFSNearestSource(t *testing.T) {
	g := line(7)
	r := MultiBFS(g, []int{0, 6})
	wantDist := []int{0, 1, 2, 3, 2, 1, 0}
	for i, w := range wantDist {
		if r.Dist[i] != w {
			t.Fatalf("Dist[%d] = %d, want %d", i, r.Dist[i], w)
		}
	}
}

func TestMultiBFSDuplicateSources(t *testing.T) {
	g := line(3)
	r := MultiBFS(g, []int{0, 0, 0})
	if r.Dist[2] != 2 {
		t.Fatalf("Dist[2] = %d", r.Dist[2])
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if !uf.Union(0, 1) || !uf.Union(2, 3) || uf.Union(0, 1) {
		t.Fatal("Union return values wrong")
	}
	if !uf.Connected(0, 1) || uf.Connected(1, 2) {
		t.Fatal("Connected wrong")
	}
	uf.Union(1, 3)
	if !uf.Connected(0, 2) {
		t.Fatal("transitive connection missing")
	}
	// {0,1,2,3}, {4}, {5}
	if uf.Connected(3, 4) || uf.Connected(4, 5) || uf.Union(0, 3) {
		t.Fatal("sets merged beyond {0,1,2,3}")
	}
}

// kruskalMST is the MST weight of the complete graph on n vertices by
// Kruskal's algorithm, the oracle CompleteEuclideanMST's dense Prim is
// checked against.
func kruskalMST(n int, dist func(i, j int) float64) float64 {
	type edge struct {
		u, v int
		w    float64
	}
	var all []edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			all = append(all, edge{u, v, dist(u, v)})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].w < all[j].w })
	uf := NewUnionFind(n)
	total := 0.0
	for _, e := range all {
		if uf.Union(e.u, e.v) {
			total += e.w
		}
	}
	return total
}

// matrixDist returns the distance function of a weight matrix.
func matrixDist(w [][]float64) func(i, j int) float64 {
	return func(i, j int) float64 { return w[i][j] }
}

func TestMSTKnown(t *testing.T) {
	// Square with diagonal 0-2 and no edge 1-3: MST weight = 1+1+1 = 3.
	inf := math.Inf(1)
	w := [][]float64{
		{0, 1, 3, 2},
		{1, 0, 1, inf},
		{3, 1, 0, 1},
		{2, inf, 1, 0},
	}
	parent, total := CompleteEuclideanMST(4, matrixDist(w))
	if want := []int{-1, 0, 1, 2}; total != 3 || !slices.Equal(parent, want) {
		t.Fatalf("MST total = %v, parents %v; want 3, %v", total, parent, want)
	}
}

func TestMSTMatchesKruskal(t *testing.T) {
	s := rng.New(42)
	for trial := 0; trial < 30; trial++ {
		n := 3 + s.Intn(50)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				w[i][j] = s.Uniform(1, 10)
				w[j][i] = w[i][j]
			}
		}
		_, prim := CompleteEuclideanMST(n, matrixDist(w))
		kruskal := kruskalMST(n, matrixDist(w))
		if math.Abs(prim-kruskal) > 1e-9 {
			t.Fatalf("Prim %v != Kruskal %v", prim, kruskal)
		}
	}
}

func TestCompleteEuclideanMSTMatchesSparse(t *testing.T) {
	s := rng.New(43)
	for trial := 0; trial < 10; trial++ {
		n := 3 + s.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = s.Uniform(0, 100), s.Uniform(0, 100)
		}
		dist := func(i, j int) float64 { return math.Hypot(xs[i]-xs[j], ys[i]-ys[j]) }
		want := kruskalMST(n, dist)
		_, got := CompleteEuclideanMST(n, dist)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("dense MST %v != sparse MST %v", got, want)
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	comps, comp := Components(g)
	if len(comps) != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("got %d components", len(comps))
	}
	if comp[0] != comp[2] || comp[0] == comp[3] || comp[5] == comp[6] {
		t.Fatal("component labels wrong")
	}
	if comps, _ := Components(line(5)); len(comps) != 1 {
		t.Fatalf("line split into %d components", len(comps))
	}
}

// Property: the MST of a complete graph has N-1 edges, all hanging off
// the tree rooted at vertex 0.
func TestQuickMSTEdgeCount(t *testing.T) {
	s := rng.New(44)
	f := func() bool {
		n := 2 + s.Intn(40)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = s.Uniform(0, 100), s.Uniform(0, 100)
		}
		parent, _ := CompleteEuclideanMST(n, func(i, j int) float64 { return math.Hypot(xs[i]-xs[j], ys[i]-ys[j]) })
		edges := 0
		for _, p := range parent {
			if p >= 0 {
				edges++
			}
		}
		return edges == n-1 && len(NewTreeFromParents(0, parent).Preorder()) == n
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTreePreorderAndDepths(t *testing.T) {
	//      0
	//     / \
	//    1   2
	//   /   / \
	//  3   4   5
	parent := []int{-1, 0, 0, 1, 2, 2}
	tr := NewTreeFromParents(0, parent)
	order := tr.Preorder()
	if order[0] != 0 || len(order) != 6 {
		t.Fatalf("Preorder = %v", order)
	}
	pos := make([]int, 6)
	for i, v := range order {
		pos[v] = i
	}
	// Every child appears after its parent.
	for v, p := range parent {
		if p >= 0 && pos[v] < pos[p] {
			t.Fatalf("child %d precedes parent %d in %v", v, p, order)
		}
	}
	// Depth first, first child first.
	if want := []int{0, 1, 3, 2, 4, 5}; !slices.Equal(order, want) {
		t.Fatalf("Preorder = %v, want %v", order, want)
	}
}

func BenchmarkMST(b *testing.B) {
	s := rng.New(2)
	xs, ys := make([]float64, 500), make([]float64, 500)
	for i := range xs {
		xs[i], ys[i] = s.Uniform(0, 100), s.Uniform(0, 100)
	}
	dist := func(i, j int) float64 { return math.Hypot(xs[i]-xs[j], ys[i]-ys[j]) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompleteEuclideanMST(len(xs), dist)
	}
}
