package geom

import "math"

// Segment is the closed line segment between A and B.
type Segment struct {
	A, B Point
}

// Seg is a shorthand constructor.
func Seg(a, b Point) Segment { return Segment{a, b} }

// ClosestPoint returns the point on s closest to p.
func (s Segment) ClosestPoint(p Point) Point {
	d := s.B.Sub(s.A)
	l2 := d.Norm2()
	if l2 == 0 {
		return s.A
	}
	t := p.Sub(s.A).Dot(d) / l2
	t = math.Max(0, math.Min(1, t))
	return s.A.Lerp(s.B, t)
}

// Dist returns the distance from p to the segment.
func (s Segment) Dist(p Point) float64 { return p.Dist(s.ClosestPoint(p)) }

// PointAt returns the point a fraction t in [0,1] along the segment.
func (s Segment) PointAt(t float64) Point { return s.A.Lerp(s.B, t) }

// Intersection returns the intersection point of the lines through s and u
// and whether the two segments properly intersect at that point. For
// parallel or collinear segments ok is false.
func (s Segment) Intersection(u Segment) (p Point, ok bool) {
	d1 := s.B.Sub(s.A)
	d2 := u.B.Sub(u.A)
	denom := d1.Cross(d2)
	if math.Abs(denom) < Eps {
		return Point{}, false
	}
	t := u.A.Sub(s.A).Cross(d2) / denom
	w := u.A.Sub(s.A).Cross(d1) / denom
	if t < -Eps || t > 1+Eps || w < -Eps || w > 1+Eps {
		return Point{}, false
	}
	return s.A.Add(d1.Scale(t)), true
}
