package geom

import (
	"math"
	"sort"
	"testing"

	"mobicol/internal/rng"
)

func randPoints(s *rng.Source, n int, l float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(s.Uniform(0, l), s.Uniform(0, l))
	}
	return pts
}

// bruteWithin is the reference implementation for range queries.
func bruteWithin(pts []Point, q Point, r float64) []int {
	var out []int
	for i, p := range pts {
		if p.Dist2(q) <= r*r+Eps {
			out = append(out, i)
		}
	}
	return out
}

func bruteNearest(pts []Point, q Point) int {
	best, bestD2 := -1, math.Inf(1)
	for i, p := range pts {
		if d2 := p.Dist2(q); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best
}

func sameIndexSet(t *testing.T, got, want []int, what string) {
	t.Helper()
	sort.Ints(got)
	sort.Ints(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d hits, want %d (%v vs %v)", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: mismatch at %d: %v vs %v", what, i, got, want)
		}
	}
}

func TestGridIndexWithinMatchesBrute(t *testing.T) {
	s := rng.New(10)
	pts := randPoints(s, 300, 200)
	g := NewGridIndex(pts, 30)
	for trial := 0; trial < 50; trial++ {
		q := Pt(s.Uniform(-20, 220), s.Uniform(-20, 220))
		r := s.Uniform(5, 60)
		got := g.Within(q, r, nil)
		sameIndexSet(t, got, bruteWithin(pts, q, r), "GridIndex.Within")
		// Radii past the grid reach every point, including ones whose
		// cell span ceil(r/cell) overflows int.
		for _, big := range []float64{1e6, 1e300} {
			sameIndexSet(t, g.Within(q, big, nil), bruteWithin(pts, q, big), "huge-radius Within")
		}
	}
}

// TestGridIndexNearestMatchesBrute pins NearestWithin at radii that
// reach every point, the grid's nearest-point query, to brute force.
func TestGridIndexNearestMatchesBrute(t *testing.T) {
	s := rng.New(11)
	pts := randPoints(s, 200, 150)
	g := NewGridIndex(pts, 25)
	for trial := 0; trial < 100; trial++ {
		q := Pt(s.Uniform(-30, 180), s.Uniform(-30, 180))
		for _, r := range []float64{1e6, 1e300} {
			got, d2 := g.NearestWithin(q, r)
			want := bruteNearest(pts, q)
			if got != want || d2 != pts[want].Dist2(q) {
				t.Fatalf("r=%g: NearestWithin = (%d, %v), brute %d (d2=%v)", r, got, d2, want, pts[want].Dist2(q))
			}
		}
	}
}

// TestGridIndexTinyCell indexes a 200 m field with a 1e-9 m cell, whose
// table would not fit in memory: the index grows the cell to a table of
// at most maxGridCells and still answers exactly.
func TestGridIndexTinyCell(t *testing.T) {
	s := rng.New(15)
	pts := randPoints(s, 300, 200)
	g := NewGridIndex(pts, 1e-9)
	if cells := float64(g.cols) * float64(g.rows); cells > maxGridCells(len(pts)) {
		t.Fatalf("tiny-cell table has %v cells, bound %v", cells, maxGridCells(len(pts)))
	}
	for trial := 0; trial < 50; trial++ {
		q := pts[s.Intn(len(pts))]
		for _, r := range []float64{1e-9, 0.5, 30, 1e300} {
			sameIndexSet(t, g.Within(q, r, nil), bruteWithin(pts, q, r), "tiny-cell Within")
			got, _ := g.NearestWithin(q, r)
			if want := bruteNearest(pts, q); got != want {
				t.Fatalf("tiny-cell NearestWithin = %d, brute %d", got, want)
			}
		}
	}
	// Grids whose table fits keep the cell they were given.
	if g := NewGridIndex(pts, 30); g.CellSize() != 30 {
		t.Fatalf("ordinary cell grown to %v", g.CellSize())
	}
}

func TestGridIndexEmpty(t *testing.T) {
	g := NewGridIndex(nil, 10)
	if i, d2 := g.NearestWithin(Pt(0, 0), 1e300); i != -1 || !math.IsInf(d2, 1) {
		t.Fatal("NearestWithin on empty index should be (-1, +Inf)")
	}
	if got := g.Within(Pt(0, 0), 5, nil); len(got) != 0 {
		t.Fatal("Within on empty index should be empty")
	}
}

func TestGridIndexSinglePoint(t *testing.T) {
	g := NewGridIndex([]Point{Pt(7, 7)}, 10)
	if i, _ := g.NearestWithin(Pt(100, 100), 200); i != 0 {
		t.Fatal("NearestWithin should find the only point")
	}
	if got := g.Within(Pt(7, 8), 2, nil); len(got) != 1 {
		t.Fatal("Within should find the only point")
	}
}

func TestGridIndexReusesBuffer(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(2, 0)}
	g := NewGridIndex(pts, 1)
	buf := make([]int, 0, 8)
	got := g.Within(Pt(0, 0), 1.5, buf)
	if len(got) != 2 {
		t.Fatalf("Within = %v", got)
	}
}

// TestGridIndexAuto10k is the large-n sizing test: at 10k points on a
// dense field, an occupancy-derived cell must keep the table O(n), keep
// per-cell population near the target, and answer queries identically
// to brute force.
func TestGridIndexAuto10k(t *testing.T) {
	const n = 10_000
	side := 200.0 * math.Sqrt(float64(n)/100.0)
	s := rng.New(42)
	pts := randPoints(s, n, side)
	g := NewGridIndexAuto(pts, 0)
	cols, rows := g.cols, g.rows
	if cells := cols * rows; cells > 4*n+64 {
		t.Fatalf("auto-sized table has %d cells for %d points; want O(n)", cells, n)
	}
	if occ := float64(n) / float64(cols*rows); occ < 0.5 || occ > 8 {
		t.Fatalf("auto-sized occupancy %.2f points/cell; want near %v", occ, DefaultGridOccupancy)
	}
	for trial := 0; trial < 25; trial++ {
		q := Pt(s.Uniform(-40, side+40), s.Uniform(-40, side+40))
		r := s.Uniform(5, 60)
		sameIndexSet(t, g.Within(q, r, nil), bruteWithin(pts, q, r), "auto GridIndex.Within")
		if got, _ := g.NearestWithin(q, 2*side); got != bruteNearest(pts, q) {
			t.Fatalf("auto NearestWithin returned %d, brute %d", got, bruteNearest(pts, q))
		}
		gotIn, gotD2 := g.NearestWithin(q, r)
		wantIn := -1
		for _, i := range bruteWithin(pts, q, r) {
			if wantIn == -1 || pts[i].Dist2(q) < pts[wantIn].Dist2(q) {
				wantIn = i
			}
		}
		if gotIn != wantIn {
			t.Fatalf("NearestWithin = %d, brute %d", gotIn, wantIn)
		}
		if wantIn >= 0 && gotD2 != pts[wantIn].Dist2(q) {
			t.Fatalf("NearestWithin d2 = %v, want %v", gotD2, pts[wantIn].Dist2(q))
		}
	}
}

func TestGridIndexAutoDegenerate(t *testing.T) {
	coincident := []Point{Pt(3, 3), Pt(3, 3), Pt(3, 3)}
	g := NewGridIndexAuto(coincident, 2)
	if got := g.Within(Pt(3, 3), 1, nil); len(got) != 3 {
		t.Fatalf("coincident Within = %v", got)
	}
	collinear := []Point{Pt(0, 5), Pt(10, 5), Pt(20, 5), Pt(30, 5)}
	g = NewGridIndexAuto(collinear, 2)
	sameIndexSet(t, g.Within(Pt(15, 5), 6, nil), bruteWithin(collinear, Pt(15, 5), 6), "collinear Within")
	if i, _ := g.NearestWithin(Pt(8, 5), 100); i != 1 {
		t.Fatalf("collinear NearestWithin = %d, want 1", i)
	}
	if i, _ := NewGridIndexAuto(nil, 0).NearestWithin(Pt(0, 0), 100); i != -1 {
		t.Fatal("empty auto index NearestWithin should be -1")
	}
}

// TestGridIndexForDense asserts the radius-aware constructor switches to
// occupancy sizing on dense fields (where radius-sized cells would hold
// many points) and keeps query results exact either way.
func TestGridIndexForDense(t *testing.T) {
	s := rng.New(17)
	pts := randPoints(s, 2000, 200) // dense: r=30 cells would hold ~45 points
	g := NewGridIndexFor(pts, 30)
	if g.CellSize() >= 30 {
		t.Fatalf("dense field kept radius-sized cell %v", g.CellSize())
	}
	for trial := 0; trial < 20; trial++ {
		q := Pt(s.Uniform(0, 200), s.Uniform(0, 200))
		sameIndexSet(t, g.Within(q, 30, nil), bruteWithin(pts, q, 30), "dense NewGridIndexFor.Within")
	}
	sparse := randPoints(s, 20, 200)
	if g := NewGridIndexFor(sparse, 30); g.CellSize() != 30 {
		t.Fatalf("sparse field should keep radius-sized cell, got %v", g.CellSize())
	}
}

func TestKDTreeNearestMatchesBrute(t *testing.T) {
	s := rng.New(12)
	pts := randPoints(s, 400, 300)
	kt := NewKDTree(pts)
	for trial := 0; trial < 200; trial++ {
		q := Pt(s.Uniform(-50, 350), s.Uniform(-50, 350))
		got, gd := kt.Nearest(q, nil)
		want := bruteNearest(pts, q)
		if math.Abs(gd-pts[want].Dist(q)) > 1e-9 {
			t.Fatalf("KDTree.Nearest dist %v, brute %v (idx %d vs %d)", gd, pts[want].Dist(q), got, want)
		}
	}
}

func TestKDTreeNearestWithSkip(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(5, 0)}
	kt := NewKDTree(pts)
	got, _ := kt.Nearest(Pt(0.1, 0), func(i int) bool { return i == 0 })
	if got != 1 {
		t.Fatalf("skip: got %d, want 1", got)
	}
	got, d := kt.Nearest(Pt(0, 0), func(i int) bool { return true })
	if got != -1 || !math.IsInf(d, 1) {
		t.Fatal("all-skipped query should return -1, +Inf")
	}
}

func TestKDTreeEmpty(t *testing.T) {
	kt := NewKDTree(nil)
	if i, d := kt.Nearest(Pt(0, 0), nil); i != -1 || !math.IsInf(d, 1) {
		t.Fatal("empty KDTree Nearest should be (-1, +Inf)")
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	pts := []Point{Pt(1, 1), Pt(1, 1), Pt(1, 1), Pt(2, 2)}
	kt := NewKDTree(pts)
	// Coincident points tie at distance 0: the lowest unskipped index
	// wins, and each skip moves to the next copy.
	for skip := 0; skip < 3; skip++ {
		got, d := kt.Nearest(Pt(1, 1), func(i int) bool { return i < skip })
		if got != skip || d != 0 {
			t.Fatalf("duplicates, skipping below %d: got (%d, %v)", skip, got, d)
		}
	}
}

func BenchmarkGridIndexBuild(b *testing.B) {
	pts := randPoints(rng.New(1), 1000, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewGridIndex(pts, 30)
	}
}

func BenchmarkGridIndexWithin(b *testing.B) {
	pts := randPoints(rng.New(1), 1000, 500)
	g := NewGridIndex(pts, 30)
	buf := make([]int, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Within(pts[i%len(pts)], 30, buf[:0])
	}
}

func BenchmarkKDTreeNearest(b *testing.B) {
	pts := randPoints(rng.New(1), 1000, 500)
	kt := NewKDTree(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kt.Nearest(pts[i%len(pts)], nil)
	}
}
