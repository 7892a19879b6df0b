package tsp

import (
	"testing"

	"mobicol/internal/geom"
	"mobicol/internal/graph"
	"mobicol/internal/rng"
)

func TestChristofidesValidTours(t *testing.T) {
	s := rng.New(90)
	for _, n := range []int{1, 2, 3, 4, 5, 10, 50, 150} {
		pts := randPts(s, n, 200)
		tour := Christofides(pts)
		if err := tour.validate(n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestChristofidesAboveMSTBound(t *testing.T) {
	s := rng.New(91)
	for trial := 0; trial < 15; trial++ {
		pts := randPts(s, 10+s.Intn(80), 200)
		tour := Christofides(pts)
		if got, lb := tour.Length(pts), MSTLowerBound(pts); got < lb-1e-9 {
			t.Fatalf("tour %v below MST bound %v: impossible", got, lb)
		}
	}
}

func TestChristofidesNearOptimalSmall(t *testing.T) {
	s := rng.New(92)
	for trial := 0; trial < 8; trial++ {
		pts := randPts(s, 8+s.Intn(5), 100)
		tour := Christofides(pts)
		opt, err := HeldKarp(pts)
		if err != nil {
			t.Fatal(err)
		}
		if tour.Length(pts) > 1.6*opt.Length(pts) {
			t.Fatalf("christofides %v vs optimum %v: worse than 1.6x", tour.Length(pts), opt.Length(pts))
		}
	}
}

func TestChristofidesUsuallyBeatsDoubleTree(t *testing.T) {
	s := rng.New(93)
	wins, total := 0, 20
	for trial := 0; trial < total; trial++ {
		pts := randPts(s, 60, 200)
		c := Christofides(pts).Length(pts)
		d := doubleTree(pts).Length(pts)
		if c <= d+1e-9 {
			wins++
		}
	}
	if wins < total*3/5 {
		t.Fatalf("christofides beat/matched double-tree in only %d of %d fields", wins, total)
	}
}

func TestChristofidesDuplicatesAndCollinear(t *testing.T) {
	pts := randPts(rng.New(94), 10, 50)
	pts[3] = pts[7] // duplicate
	tour := Christofides(pts)
	if err := tour.validate(len(pts)); err != nil {
		t.Fatal(err)
	}
	line := randPts(rng.New(95), 0, 0)
	for i := 0; i < 8; i++ {
		line = append(line, pts[0].Add(pts[1].Sub(pts[0]).Scale(float64(i))))
	}
	tour = Christofides(line)
	if err := tour.validate(len(line)); err != nil {
		t.Fatal(err)
	}
}

// doubleTree is the classic MST 2-approximation Christofides improves on:
// walk a minimum spanning tree in preorder, shortcutting repeated
// vertices. It is at most twice the optimal tour in any metric space.
func doubleTree(pts []geom.Point) Tour {
	n := len(pts)
	if n <= 3 {
		return trivialTour(n)
	}
	parent, _ := graph.CompleteEuclideanMST(n, func(i, j int) float64 { return pts[i].Dist(pts[j]) })
	return Tour(graph.NewTreeFromParents(0, parent).Preorder())
}
