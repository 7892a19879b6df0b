package geom

import "math"

// Circle is the disk of radius R centred at C. In this repository a
// circle almost always models a sensor's transmission range: the mobile
// collector can receive a sensor's single-hop upload from any point
// inside the disk.
type Circle struct {
	C Point
	R float64
}

// Intersect returns the 0, 1 or 2 intersection points of circles c and d.
// Coincident circles return no points (infinitely many exist; callers that
// generate candidate polling points do not need them — the shared centre
// covers the same set).
func (c Circle) Intersect(d Circle) []Point {
	dist := c.C.Dist(d.C)
	if dist < Eps && math.Abs(c.R-d.R) < Eps {
		return nil // coincident
	}
	if dist > c.R+d.R+Eps {
		return nil // separate
	}
	if dist < math.Abs(c.R-d.R)-Eps {
		return nil // one inside the other
	}
	// a is the distance from c.C to the chord midpoint along the centre line.
	a := (dist*dist + c.R*c.R - d.R*d.R) / (2 * dist)
	h2 := c.R*c.R - a*a
	if h2 < 0 {
		h2 = 0
	}
	h := math.Sqrt(h2)
	dir := d.C.Sub(c.C).Scale(1 / dist)
	mid := c.C.Add(dir.Scale(a))
	if h < Eps {
		return []Point{mid} // tangent
	}
	perp := Point{-dir.Y, dir.X}
	return []Point{mid.Add(perp.Scale(h)), mid.Sub(perp.Scale(h))}
}

// CoverPointCandidates returns, for the family of disks of radius r
// centred at sites, the classic candidate set for geometric disk cover:
// every site itself plus every intersection point of two site circles of
// radius r. A standard result for covering points by radius-r disks is
// that some optimal cover uses only centres from this set, because any
// disk can be slid until its boundary touches two covered sites (or is
// centred on one) without losing coverage.
func CoverPointCandidates(sites []Point, r float64) []Point {
	out := make([]Point, 0, len(sites)*3)
	out = append(out, sites...)
	for i := 0; i < len(sites); i++ {
		ci := Circle{sites[i], r}
		for j := i + 1; j < len(sites); j++ {
			// Two radius-r circles intersect only if centres are within 2r.
			if sites[i].Dist2(sites[j]) > 4*r*r+Eps {
				continue
			}
			out = append(out, ci.Intersect(Circle{sites[j], r})...)
		}
	}
	return out
}
