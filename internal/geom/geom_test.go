package geom

import (
	"math"
	"testing"
	"testing/quick"

	"mobicol/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// onBoundary reports whether p lies on c's boundary within a relative
// 1e-6: the oracle for computed intersection points.
func onBoundary(c Circle, p Point) bool {
	return math.Abs(c.C.Dist(p)-c.R) <= 1e-6*(1+c.R)
}

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Fatalf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Fatalf("Dot = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Fatalf("Cross = %v", got)
	}
}

func TestDistAgreesWithDist2(t *testing.T) {
	s := rng.New(1)
	for i := 0; i < 1000; i++ {
		p := Pt(s.Uniform(-100, 100), s.Uniform(-100, 100))
		q := Pt(s.Uniform(-100, 100), s.Uniform(-100, 100))
		if !almostEq(p.Dist(q)*p.Dist(q), p.Dist2(q), 1e-6) {
			t.Fatalf("Dist^2 != Dist2 for %v %v", p, q)
		}
	}
}

func TestLerpEndpoints(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if !p.Lerp(q, 0).Eq(p) || !p.Lerp(q, 1).Eq(q) {
		t.Fatal("Lerp endpoints wrong")
	}
	if !p.Lerp(q, 0.5).Eq(Pt(5, 10)) {
		t.Fatal("Lerp midpoint wrong")
	}
}

func TestPolar(t *testing.T) {
	p := Pt(1, 1).Polar(2, math.Pi/2)
	if !p.Eq(Pt(1, 3)) {
		t.Fatalf("Polar = %v, want (1,3)", p)
	}
}

func TestCentroid(t *testing.T) {
	c := Centroid([]Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)})
	if !c.Eq(Pt(1, 1)) {
		t.Fatalf("Centroid = %v", c)
	}
}

func TestSegmentClosestPointAndDist(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	cases := []struct {
		p    Point
		want Point
		d    float64
	}{
		{Pt(5, 3), Pt(5, 0), 3},
		{Pt(-2, 0), Pt(0, 0), 2},
		{Pt(14, 3), Pt(10, 0), 5},
	}
	for _, c := range cases {
		got := s.ClosestPoint(c.p)
		if !got.Eq(c.want) {
			t.Fatalf("ClosestPoint(%v) = %v, want %v", c.p, got, c.want)
		}
		if !almostEq(s.Dist(c.p), c.d, 1e-12) {
			t.Fatalf("Dist(%v) = %v, want %v", c.p, s.Dist(c.p), c.d)
		}
	}
}

func TestSegmentDegenerate(t *testing.T) {
	s := Seg(Pt(2, 2), Pt(2, 2))
	if !s.ClosestPoint(Pt(9, 9)).Eq(Pt(2, 2)) {
		t.Fatal("degenerate segment closest point wrong")
	}
}

func TestSegmentIntersectionPoint(t *testing.T) {
	p, ok := Seg(Pt(0, 0), Pt(2, 2)).Intersection(Seg(Pt(0, 2), Pt(2, 0)))
	if !ok || !p.Eq(Pt(1, 1)) {
		t.Fatalf("Intersection = %v, %v", p, ok)
	}
	if _, ok := Seg(Pt(0, 0), Pt(1, 0)).Intersection(Seg(Pt(0, 1), Pt(1, 1))); ok {
		t.Fatal("parallel segments should not intersect")
	}
}

func TestCircleIntersectTwoPoints(t *testing.T) {
	a := Circle{Pt(0, 0), 5}
	b := Circle{Pt(6, 0), 5}
	pts := a.Intersect(b)
	if len(pts) != 2 {
		t.Fatalf("got %d intersection points, want 2", len(pts))
	}
	for _, p := range pts {
		if !onBoundary(a, p) || !onBoundary(b, p) {
			t.Fatalf("intersection point %v not on both boundaries", p)
		}
	}
}

func TestCircleIntersectTangent(t *testing.T) {
	a := Circle{Pt(0, 0), 2}
	b := Circle{Pt(4, 0), 2}
	pts := a.Intersect(b)
	if len(pts) != 1 || !pts[0].Eq(Pt(2, 0)) {
		t.Fatalf("tangent intersection = %v", pts)
	}
}

func TestCircleIntersectDisjointAndNested(t *testing.T) {
	a := Circle{Pt(0, 0), 1}
	if pts := a.Intersect(Circle{Pt(10, 0), 1}); len(pts) != 0 {
		t.Fatalf("disjoint circles intersect: %v", pts)
	}
	if pts := a.Intersect(Circle{Pt(0.1, 0), 5}); len(pts) != 0 {
		t.Fatalf("nested circles intersect: %v", pts)
	}
	if pts := a.Intersect(a); len(pts) != 0 {
		t.Fatalf("coincident circles returned points: %v", pts)
	}
}

// Property: every returned intersection point lies on both circles.
func TestQuickCircleIntersection(t *testing.T) {
	s := rng.New(4)
	f := func() bool {
		a := Circle{Pt(s.Uniform(-10, 10), s.Uniform(-10, 10)), s.Uniform(0.5, 8)}
		b := Circle{Pt(s.Uniform(-10, 10), s.Uniform(-10, 10)), s.Uniform(0.5, 8)}
		for _, p := range a.Intersect(b) {
			if !onBoundary(a, p) || !onBoundary(b, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverPointCandidatesContainSites(t *testing.T) {
	sites := []Point{Pt(0, 0), Pt(10, 0), Pt(100, 100)}
	cands := CoverPointCandidates(sites, 6)
	if len(cands) < len(sites) {
		t.Fatal("candidate set smaller than site set")
	}
	for i, s := range sites {
		if !cands[i].Eq(s) {
			t.Fatalf("site %d missing from candidates", i)
		}
	}
	// Sites 0 and 1 are 10 apart with r=6: two intersection points expected.
	// Site 2 is isolated.
	if len(cands) != 5 {
		t.Fatalf("got %d candidates, want 5", len(cands))
	}
}

func TestRectBasics(t *testing.T) {
	r := Square(100)
	if r.Width() != 100 || r.Height() != 100 {
		t.Fatal("Square dimensions wrong")
	}
	if !r.Center().Eq(Pt(50, 50)) {
		t.Fatal("Square centre wrong")
	}
	if got := r.Clamp(Pt(-5, 120)); !got.Eq(Pt(0, 100)) {
		t.Fatalf("Clamp = %v", got)
	}
}

func TestNewRectNormalises(t *testing.T) {
	r := NewRect(Pt(5, -1), Pt(-2, 7))
	if !r.Min.Eq(Pt(-2, -1)) || !r.Max.Eq(Pt(5, 7)) {
		t.Fatalf("NewRect = %+v", r)
	}
}

func TestBound(t *testing.T) {
	r := Bound([]Point{Pt(1, 5), Pt(-3, 2), Pt(4, -7)})
	if !r.Min.Eq(Pt(-3, -7)) || !r.Max.Eq(Pt(4, 5)) {
		t.Fatalf("Bound = %+v", r)
	}
}

func TestGridPoints(t *testing.T) {
	pts := Square(40).GridPoints(20)
	if len(pts) != 9 { // 3x3 lattice: 0,20,40 in each axis
		t.Fatalf("got %d grid points, want 9", len(pts))
	}
	for _, p := range pts {
		if p != Square(40).Clamp(p) {
			t.Fatalf("grid point %v outside field", p)
		}
	}
}
