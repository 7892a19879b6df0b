package geom

import "math"

// GridIndex is a uniform spatial hash over points that answers
// fixed-radius range queries in expected O(1 + output) time. It is the
// workhorse behind unit-disk-graph construction: building the neighbour
// lists of an N-sensor field costs O(N) with a cell size equal to the
// transmission range, versus O(N²) for the naive double loop.
//
// Internally the index stores the points twice: once as the caller's
// []Point (for identity) and once as flat xs/ys coordinate slices
// grouped by cell in CSR layout (cellStart/order). Queries scan each
// candidate cell's contiguous coordinate range instead of chasing a map
// of bucket slices, which is both allocation-free at query time and
// vectorisation-friendly.
type GridIndex struct {
	cell float64
	pts  []Point
	minX float64
	minY float64
	cols int
	rows int
	// CSR buckets: cell k holds points order[cellStart[k]:cellStart[k+1]],
	// ascending by point index. xs/ys are the coordinates of order[i]'s
	// point at flat position i, so one cell is one contiguous slice pair.
	cellStart []int32
	order     []int32
	xs        []float64
	ys        []float64
}

// NewGridIndex indexes pts with the given cell size (> 0). The index keeps
// a reference to pts; callers must not mutate the slice afterwards.
//
//mdglint:allow-mut(initializes only the index's freshly allocated CSR arrays; pts is retained read-only by the documented contract above)
func NewGridIndex(pts []Point, cell float64) *GridIndex {
	if cell <= 0 {
		//mdglint:ignore nopanic documented precondition; cell sizes are positive literals or ranges in all callers
		panic("geom: NewGridIndex with non-positive cell size")
	}
	g := &GridIndex{cell: cell, pts: pts}
	if len(pts) == 0 {
		g.cols, g.rows = 1, 1
		g.cellStart = make([]int32, 2)
		return g
	}
	b := Bound(pts)
	w, h := b.Max.X-b.Min.X, b.Max.Y-b.Min.Y
	// A cell far below the points' spread (a 1e-9 m range on a 200 m
	// field) would ask for more cells than memory holds. Doubling the
	// cell until the table fits keeps queries exact: a query scans every
	// cell its radius reaches, whatever the cell size.
	for limit := maxGridCells(len(pts)); (math.Floor(w/cell)+1)*(math.Floor(h/cell)+1) > limit; {
		cell *= 2
	}
	g.cell = cell
	g.minX, g.minY = b.Min.X, b.Min.Y
	g.cols = int(math.Floor(w/cell)) + 1
	g.rows = int(math.Floor(h/cell)) + 1
	// Counting sort by cell key. Appending point indices in input order
	// keeps each cell's bucket ascending, matching the map-of-slices
	// construction this replaces bit for bit.
	cells := g.cols * g.rows
	g.cellStart = make([]int32, cells+1)
	for _, p := range pts {
		g.cellStart[g.key(p)+1]++
	}
	for k := 0; k < cells; k++ {
		g.cellStart[k+1] += g.cellStart[k]
	}
	g.order = make([]int32, len(pts))
	g.xs = make([]float64, len(pts))
	g.ys = make([]float64, len(pts))
	fill := make([]int32, cells)
	for i, p := range pts {
		k := g.key(p)
		at := g.cellStart[k] + fill[k]
		fill[k]++
		g.order[at] = int32(i)
		g.xs[at] = p.X
		g.ys[at] = p.Y
	}
	return g
}

// maxGridCells bounds the cell table of an index over n points. Radius-
// sized cells on a sparse field can outnumber the points many times over,
// so the bound is generous: 16 cells per point plus 2^16 for small n.
func maxGridCells(n int) float64 { return 16*float64(n) + 1<<16 }

// DefaultGridOccupancy is the points-per-cell target NewGridIndexAuto
// aims for. Around two points per cell keeps range queries touching a
// handful of points per cell without exploding the cell table.
const DefaultGridOccupancy = 2.0

// NewGridIndexAuto indexes pts with a cell size derived from the point
// density instead of a caller-supplied radius: cells are sized so the
// expected occupancy is targetOccupancy points per cell (<= 0 selects
// DefaultGridOccupancy). Radius-derived cell sizes degrade at scale —
// at n=100k a range-sized cell on a dense field holds hundreds of
// points and every query degenerates toward a linear scan — while
// occupancy-derived cells keep per-cell work constant at any n. The
// cell table is capped near 4 cells per point so degenerate aspect
// ratios cannot balloon memory, and coincident point sets fall back to
// a single-cell index.
func NewGridIndexAuto(pts []Point, targetOccupancy float64) *GridIndex {
	if targetOccupancy <= 0 {
		targetOccupancy = DefaultGridOccupancy
	}
	n := len(pts)
	if n == 0 {
		return NewGridIndex(pts, 1)
	}
	b := Bound(pts)
	w, h := b.Max.X-b.Min.X, b.Max.Y-b.Min.Y
	span := math.Max(w, h)
	if !(span > 0) {
		// All points coincident: any cell size yields one bucket.
		return NewGridIndex(pts, 1)
	}
	var cell float64
	if w > 0 && h > 0 {
		cell = math.Sqrt(w * h * targetOccupancy / float64(n))
	} else {
		// Collinear points: one axis is degenerate, so size along the
		// populated axis only.
		cell = span * targetOccupancy / float64(n)
	}
	// Never allow more than ~4 cells per point (plus slack for tiny n):
	// the table must stay O(n) even for extreme occupancy requests.
	if minCell := span / math.Sqrt(4*float64(n)+64); cell < minCell {
		cell = minCell
	}
	return NewGridIndex(pts, cell)
}

// NewGridIndexFor indexes pts for fixed-radius queries of radius r: the
// classic radius-sized cell on sparse fields, shrinking toward the
// occupancy-derived auto size when the field is dense enough that
// r-sized cells would hold many points each. Use it wherever the query
// radius is known up front (coverage construction, neighbour queries).
func NewGridIndexFor(pts []Point, r float64) *GridIndex {
	if r <= 0 {
		//mdglint:ignore nopanic documented precondition; query radii are positive ranges in all callers
		panic("geom: NewGridIndexFor with non-positive radius")
	}
	n := len(pts)
	if n == 0 {
		return NewGridIndex(pts, r)
	}
	b := Bound(pts)
	w, h := b.Max.X-b.Min.X, b.Max.Y-b.Min.Y
	if w > 0 && h > 0 {
		if auto := math.Sqrt(w * h * DefaultGridOccupancy / float64(n)); auto < r {
			return NewGridIndexAuto(pts, DefaultGridOccupancy)
		}
	}
	return NewGridIndex(pts, r)
}

// CellSize returns the index's cell edge length in metres.
func (g *GridIndex) CellSize() float64 { return g.cell }

func (g *GridIndex) cellOf(p Point) (cx, cy int) {
	cx = int(math.Floor((p.X - g.minX) / g.cell))
	cy = int(math.Floor((p.Y - g.minY) / g.cell))
	return cx, cy
}

func (g *GridIndex) key(p Point) int {
	cx, cy := g.cellOf(p)
	return cy*g.cols + cx
}

// reach returns the cells [x0, x1] × [y0, y1] a query of radius r around
// q scans: q's cell plus ceil(r/cell)+1 cells each way, clipped to the
// grid. The bounds are clipped in floating point before they become ints,
// so a radius far larger than the grid scans the whole grid instead of
// overflowing int into an empty range.
func (g *GridIndex) reach(q Point, r float64) (x0, x1, y0, y1 int) {
	span := math.Ceil(r/g.cell) + 1
	cx := math.Floor((q.X - g.minX) / g.cell)
	cy := math.Floor((q.Y - g.minY) / g.cell)
	x0 = int(math.Max(cx-span, 0))
	x1 = int(math.Min(cx+span, float64(g.cols-1)))
	y0 = int(math.Max(cy-span, 0))
	y1 = int(math.Min(cy+span, float64(g.rows-1)))
	return x0, x1, y0, y1
}

// Within appends to dst the indices of all indexed points within distance r
// of q (inclusive) and returns the extended slice. Pass a reused buffer to
// avoid allocation in hot loops.
func (g *GridIndex) Within(q Point, r float64, dst []int) []int {
	if len(g.pts) == 0 {
		return dst
	}
	r2 := r*r + Eps
	x0, x1, y0, y1 := g.reach(q, r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			k := y*g.cols + x
			s, e := g.cellStart[k], g.cellStart[k+1]
			xs, ys := g.xs[s:e], g.ys[s:e]
			for i := range xs {
				dx := xs[i] - q.X
				dyy := ys[i] - q.Y
				if dx*dx+dyy*dyy <= r2 {
					//mdglint:allow-alloc(amortized growth of the caller's hit buffer)
					dst = append(dst, int(g.order[s+int32(i)]))
				}
			}
		}
	}
	return dst
}

// NearestWithin returns the index of the closest indexed point within
// distance r of q and its squared distance, or (-1, +inf) when no point
// is in range. Ties break toward the lower index. It never looks past
// the radius, so dense-field callers with a known bound (warm-start stop
// assignment) pay O(cells under r).
func (g *GridIndex) NearestWithin(q Point, r float64) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	if len(g.pts) == 0 {
		return best, bestD2
	}
	bound := r*r + Eps
	x0, x1, y0, y1 := g.reach(q, r)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			k := y*g.cols + x
			s, e := g.cellStart[k], g.cellStart[k+1]
			xs, ys := g.xs[s:e], g.ys[s:e]
			for i := range xs {
				dx := xs[i] - q.X
				dyy := ys[i] - q.Y
				d2 := dx*dx + dyy*dyy
				if d2 > bound {
					continue
				}
				idx := int(g.order[s+int32(i)])
				if d2 < bestD2 || (d2 == bestD2 && idx < best) {
					best, bestD2 = idx, d2
				}
			}
		}
	}
	return best, bestD2
}
