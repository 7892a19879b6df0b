package obstacle

import (
	"math"
	"testing"

	"mobicol/internal/geom"
	"mobicol/internal/wsn"
)

func square(x0, y0, x1, y1 float64) Polygon {
	return Rectangle(geom.NewRect(geom.Pt(x0, y0), geom.Pt(x1, y1)))
}

func TestPolygonValidate(t *testing.T) {
	if err := square(0, 0, 10, 10).Validate(); err != nil {
		t.Fatal(err)
	}
	// Clockwise: reversed vertices.
	cw := Polygon{V: []geom.Point{geom.Pt(0, 0), geom.Pt(0, 10), geom.Pt(10, 10), geom.Pt(10, 0)}}
	if err := cw.Validate(); err == nil {
		t.Fatal("clockwise polygon accepted")
	}
	if err := (Polygon{V: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}}).Validate(); err == nil {
		t.Fatal("degenerate polygon accepted")
	}
}

func TestPolygonContains(t *testing.T) {
	p := square(0, 0, 10, 10)
	if !p.Contains(geom.Pt(5, 5)) {
		t.Fatal("interior point not contained")
	}
	if p.Contains(geom.Pt(15, 5)) || p.Contains(geom.Pt(-1, -1)) {
		t.Fatal("exterior point contained")
	}
	if p.Contains(geom.Pt(0, 5)) || p.Contains(geom.Pt(10, 10)) {
		t.Fatal("boundary point counted as inside")
	}
}

func TestBlocks(t *testing.T) {
	p := square(4, 4, 6, 6)
	cases := []struct {
		a, b geom.Point
		want bool
	}{
		{geom.Pt(0, 5), geom.Pt(10, 5), true},        // straight through
		{geom.Pt(0, 0), geom.Pt(10, 0), false},       // clear below
		{geom.Pt(0, 4), geom.Pt(10, 4), false},       // grazing the bottom wall
		{geom.Pt(4, 0), geom.Pt(4, 10), false},       // grazing the left wall
		{geom.Pt(5, 5), geom.Pt(20, 20), true},       // starts inside
		{geom.Pt(4.5, 4.5), geom.Pt(5.5, 5.5), true}, // fully inside
		{geom.Pt(0, 0), geom.Pt(4, 4), false},        // ends at a corner
	}
	for i, c := range cases {
		if got := p.blocks(c.a, c.b); got != c.want {
			t.Fatalf("case %d (%v-%v): blocks = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestShortestPathClear(t *testing.T) {
	course, err := NewCourse(square(40, 40, 60, 60))
	if err != nil {
		t.Fatal(err)
	}
	path, l, ok := course.ShortestPath(geom.Pt(0, 0), geom.Pt(10, 0))
	if !ok || len(path) != 2 || math.Abs(l-10) > 1e-9 {
		t.Fatalf("clear path = %v, %v, %v", path, l, ok)
	}
}

func TestShortestPathAroundSquare(t *testing.T) {
	course, err := NewCourse(square(4, -2, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	a, b := geom.Pt(0, 0), geom.Pt(10, 0)
	path, l, ok := course.ShortestPath(a, b)
	if !ok {
		t.Fatal("no path found")
	}
	// Optimal: around a corner, length = |(0,0)-(4,2)| + |(4,2)-(6,2)| + |(6,2)-(10,0)|
	want := math.Hypot(4, 2) + 2 + math.Hypot(4, 2)
	if math.Abs(l-want) > 1e-3 {
		t.Fatalf("length %v, want %v (path %v)", l, want, path)
	}
	if len(path) < 3 {
		t.Fatalf("path should detour: %v", path)
	}
	// Verify the polyline itself is unblocked and lengths agree.
	total := 0.0
	for i := 1; i < len(path); i++ {
		if course.Blocked(path[i-1], path[i]) {
			t.Fatalf("leg %d of returned path blocked", i)
		}
		total += path[i-1].Dist(path[i])
	}
	if math.Abs(total-l) > 1e-9 {
		t.Fatalf("polyline length %v != reported %v", total, l)
	}
}

func TestShortestPathTwoObstacles(t *testing.T) {
	course, err := NewCourse(square(3, -5, 4, 5), square(6, 0, 7, 10))
	if err != nil {
		t.Fatal(err)
	}
	a, b := geom.Pt(0, 0), geom.Pt(10, 0)
	path, l, ok := course.ShortestPath(a, b)
	if !ok {
		t.Fatal("no path")
	}
	if l <= 10 {
		t.Fatalf("detour length %v should exceed straight-line 10", l)
	}
	for i := 1; i < len(path); i++ {
		if course.Blocked(path[i-1], path[i]) {
			t.Fatalf("leg %d blocked", i)
		}
	}
}

func TestMatrixSymmetricAndTriangle(t *testing.T) {
	course, err := NewCourse(square(40, 40, 60, 60), square(20, 70, 35, 85))
	if err != nil {
		t.Fatal(err)
	}
	pts := []geom.Point{geom.Pt(10, 50), geom.Pt(90, 50), geom.Pt(50, 10), geom.Pt(50, 90)}
	m := course.Matrix(pts)
	n := len(pts)
	for i := 0; i < n; i++ {
		if m[i][i] != 0 {
			t.Fatal("diagonal not zero")
		}
		for j := 0; j < n; j++ {
			if m[i][j] != m[j][i] {
				t.Fatal("matrix not symmetric")
			}
			if m[i][j] < pts[i].Dist(pts[j])-1e-9 {
				t.Fatal("obstacle distance below Euclidean")
			}
			for k := 0; k < n; k++ {
				if m[i][j] > m[i][k]+m[k][j]+1e-6 {
					t.Fatalf("triangle inequality violated (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func courseAndNet(t *testing.T) (*Course, *wsn.Network) {
	t.Helper()
	course, err := NewCourse(
		square(60, 60, 90, 90),
		square(120, 110, 150, 140),
		square(30, 130, 55, 160),
	)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := DeployAround(wsn.Config{N: 120, FieldSide: 200, Range: 30, Seed: 9}, course)
	if err != nil {
		t.Fatal(err)
	}
	return course, nw
}

func TestDeployAroundAvoidsObstacles(t *testing.T) {
	course, nw := courseAndNet(t)
	for i, node := range nw.Nodes {
		if course.Inside(node.Pos) {
			t.Fatalf("sensor %d inside an obstacle", i)
		}
		if node.Pos != nw.Field.Clamp(node.Pos) {
			t.Fatalf("sensor %d left the field", i)
		}
	}
	if nw.N() != 120 {
		t.Fatalf("N = %d", nw.N())
	}
}

func TestPlanTourValid(t *testing.T) {
	course, nw := courseAndNet(t)
	tour, err := PlanTour(nw, course)
	if err != nil {
		t.Fatal(err)
	}
	if tour.Length < tour.Euclidean-1e-9 {
		t.Fatalf("driven %v below Euclidean %v", tour.Length, tour.Euclidean)
	}
	if tour.DetourFactor() < 1 {
		t.Fatalf("detour factor %v", tour.DetourFactor())
	}
	// Every waypoint leg must be clear.
	for i := 1; i < len(tour.Waypoints); i++ {
		if course.Blocked(tour.Waypoints[i-1], tour.Waypoints[i]) {
			t.Fatalf("waypoint leg %d blocked", i)
		}
	}
	// Single-hop coverage still holds.
	for i, s := range tour.UploadAt {
		if s < 0 {
			t.Fatalf("sensor %d unserved", i)
		}
		if d := nw.Nodes[i].Pos.Dist(tour.Stops[s]); d > nw.Range+1e-6 {
			t.Fatalf("sensor %d uploads over %.2f m", i, d)
		}
	}
	// Polyline length must equal the reported length.
	total := 0.0
	for i := 1; i < len(tour.Waypoints); i++ {
		total += tour.Waypoints[i-1].Dist(tour.Waypoints[i])
	}
	if math.Abs(total-tour.Length) > 1e-6 {
		t.Fatalf("polyline %v != length %v", total, tour.Length)
	}
}

func TestPlanTourNoObstaclesMatchesEuclidean(t *testing.T) {
	course, err := NewCourse()
	if err != nil {
		t.Fatal(err)
	}
	nw := wsn.MustDeploy(wsn.Config{N: 80, FieldSide: 150, Range: 30, Seed: 4})
	tour, err := PlanTour(nw, course)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tour.DetourFactor()-1) > 1e-9 {
		t.Fatalf("empty course detour factor %v", tour.DetourFactor())
	}
}

func TestPlanTourRejectsSensorInObstacle(t *testing.T) {
	course, err := NewCourse(square(0, 0, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	nw := wsn.New([]geom.Point{geom.Pt(50, 50)}, geom.Pt(150, 150), 30, geom.Square(200))
	if _, err := PlanTour(nw, course); err == nil {
		t.Fatal("sensor inside obstacle accepted")
	}
}
