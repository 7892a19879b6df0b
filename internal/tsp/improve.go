package tsp

import (
	"math"

	"mobicol/internal/geom"
	"mobicol/internal/par"
)

// neighborK is the candidate-list width shared by the local searches.
// 10–16 captures almost all improving 2-opt/Or-opt moves on Euclidean
// instances; 12 matches the classic Lin–Kernighan setting.
const neighborK = 12

// parMinPoints is the instance size below which the k-nearest lists and
// the sparse greedy-edge candidates are built on the calling goroutine
// whatever the pool: the paper's instances (a few hundred stops) would
// pay more for the fan-out than the work costs.
const parMinPoints = 4096

// knnStartCells is the first disk-query radius of the k-nearest search,
// in grid cells. At the grid's one-point-per-cell occupancy a disk of
// 2.5 cells holds about 20 points, so most queries find k = 12 others
// without a rescan. Any start radius gives the same lists; it only sets
// how many rescans a point needs.
const knnStartCells = 2.5

// neighborLists returns, for every point, the indices of its k nearest
// other points, sorted by ascending distance (ties toward the lower
// index, so the lists are independent of construction path), and the
// number of candidate distances it evaluated. Local search restricted to
// near neighbours finds almost all the improving moves of the full
// quadratic scan at a fraction of the cost.
//
// The lists are built from an occupancy-auto-sized geom.GridIndex disk
// query with radius doubling — expected O(k) work per point at any n —
// with candidate distances computed through the flat-slice batch kernel
// and the k nearest kept by insertion into a k-slot prefix. Every disk
// hit is nearer than every miss, so the result is the exact k-nearest
// set however the grid is sized and wherever the radius starts. Complete
// lists (k = n−1) and degenerate geometry (all points coincident), where
// a grid cannot be built, take every other point as a candidate instead.
//
// Each point's list depends on the point set alone and lands in its own
// window of the backing array, so the points are split into pool chunks
// with no effect on the result; the evaluation count is a per-chunk sum
// and is the same for every pool size.
func neighborLists(pts []geom.Point, k int, pool par.Pool) ([][]int, int64) {
	n := len(pts)
	if k >= n {
		k = n - 1
	}
	lists := make([][]int, n)
	if k <= 0 {
		return lists, 0
	}
	// Every list is a k-wide window of one backing array. The full slice
	// expression caps each window at k, so an append to one list
	// reallocates instead of overwriting the next.
	flat := make([]int, n*k)
	for i := range lists {
		lists[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	b := geom.Bound(pts)
	w, h := b.Max.X-b.Min.X, b.Max.Y-b.Min.Y
	span := max(w, h)
	if k == n-1 || !(span > 0) {
		// Complete lists need no grid, and coincident points have no
		// usable grid cell: every other point is a candidate.
		cand, keys := make([]int32, 0, n-1), make([]float64, 0, n-1)
		for i := range lists {
			cand, keys = nearestAll(pts, i, lists[i], cand, keys)
		}
		return lists, int64(n) * int64(n-1)
	}
	idx := geom.NewGridIndexAuto(pts, 1)
	r0 := knnStartCells * idx.CellSize()
	diag := math.Hypot(w, h)
	xs, ys := geom.SplitXY(pts, nil, nil)
	if n < parMinPoints {
		pool = par.Seq()
	}
	evals := par.MapChunks(pool, n, func(lo, hi int) int64 {
		buf := make([]int, 0, 4*k)
		cand := make([]int32, 0, 4*k)
		keys := make([]float64, 0, 4*k)
		var count int64
		for i := lo; i < hi; i++ {
			r := r0
			others := 0
			for {
				buf = idx.Within(pts[i], r, buf[:0])
				others = len(buf)
				for _, j := range buf {
					if j == i {
						others--
					}
				}
				if others >= k || r > diag {
					break
				}
				r *= 2
			}
			if others < k {
				// Unreachable once r exceeds the bounding-box diagonal
				// (every point is within diag of every other), but keep
				// the exact path as a safety net.
				cand, keys = nearestAll(pts, i, lists[i], cand, keys)
				count += int64(n - 1)
				continue
			}
			cand = cand[:0]
			for _, j := range buf {
				if j != i {
					cand = append(cand, int32(j))
				}
			}
			if cap(keys) < len(cand) {
				keys = make([]float64, len(cand))
			}
			keys = keys[:len(cand)]
			geom.Dist2Gather(xs, ys, cand, pts[i], keys)
			nearestK(cand, keys, k)
			for j := range lists[i] {
				lists[i][j] = int(cand[j])
			}
			count += int64(len(cand))
		}
		return count
	})
	var total int64
	for _, e := range evals {
		total += e
	}
	return lists, total
}

// nearestK moves the k candidates that come first in ascending (key,
// index) order into cand[:k], in that order: the prefix a full sort by
// squared distance with ties toward the lower index would give, kept by
// insertion into a k-slot prefix instead. keys[c] is cand[c]'s squared
// distance and moves with it; len(cand) >= k.
func nearestK(cand []int32, keys []float64, k int) {
	for c := range cand {
		d, j := keys[c], cand[c]
		p := c // the gap (d, j) is inserted into
		if c >= k {
			if !nearer(d, j, keys[k-1], cand[k-1]) {
				continue
			}
			p = k - 1 // drop the prefix's last entry
		}
		for p > 0 && nearer(d, j, keys[p-1], cand[p-1]) {
			keys[p], cand[p] = keys[p-1], cand[p-1]
			p--
		}
		keys[p], cand[p] = d, j
	}
}

// nearer reports whether candidate j at squared distance d precedes
// candidate l at squared distance e: nearer first, ties toward the lower
// index, a total order on distinct candidates.
func nearer(d float64, j int32, e float64, l int32) bool {
	//mdglint:ignore floateq total-order comparator needs exact ordering; an epsilon would break transitivity
	if d != e {
		return d < e
	}
	return j < l
}

// nearestAll fills list with the len(list) points nearest pts[i] in
// (d², index) order, from a scan of every other point: the exact
// quadratic construction. cand and keys are scratch, returned for reuse.
func nearestAll(pts []geom.Point, i int, list []int, cand []int32, keys []float64) ([]int32, []float64) {
	cand, keys = cand[:0], keys[:0]
	for j := range pts {
		if j != i {
			cand = append(cand, int32(j))
			keys = append(keys, pts[i].Dist2(pts[j]))
		}
	}
	nearestK(cand, keys, len(list))
	for j := range list {
		list[j] = int(cand[j])
	}
	return cand, keys
}

// Scratch holds the reusable working state of the local-search passes.
// The zero value is ready to use; buffers grow to the largest instance
// seen and are retained, so repeated passes touch the allocator only on
// first use. Solve threads one Scratch through all of its improvement
// passes, and callers running many solves (the planners' refinement
// loops, the benchmark harness) can hold their own across calls. A
// Scratch must not be shared between concurrent passes.
type Scratch struct {
	pos      []int  // point -> position in tour
	dontLook []bool // don't-look bits
	queue    []int  // work queue of points to (re-)examine
	reloc    Tour   // relocation splice buffer
}

// ensure sizes the buffers for an n-stop tour and resets per-pass state.
//
//mdglint:allow-alloc(scratch growth is amortized; steady state reuses the retained buffers)
func (s *Scratch) ensure(n int) {
	if cap(s.pos) < n {
		s.pos = make([]int, n)
		s.dontLook = make([]bool, n)
		s.reloc = make(Tour, 0, n)
	}
	if cap(s.queue) < n {
		s.queue = make([]int, 0, n)
	}
	s.pos = s.pos[:n]
	s.dontLook = s.dontLook[:n]
	for i := range s.dontLook {
		s.dontLook[i] = false
	}
	s.queue = s.queue[:0]
}

// TwoOpt improves tour in place with 2-opt moves (reverse a segment when
// doing so shortens the tour), restricted to candidate edges between near
// neighbours and accelerated with don't-look bits. It returns the number
// of improving moves applied.
func TwoOpt(pts []geom.Point, tour Tour) int {
	if len(tour) < 4 {
		return 0
	}
	var s Scratch
	return s.TwoOpt(pts, tour, NeighborLists(pts, neighborK, par.Pool{}))
}

// NeighborLists builds the k-nearest candidate lists the improvement
// passes take (the solver uses k = 12). The lists depend only on the
// point set, so callers holding a Scratch across passes build them once
// and share them between TwoOpt and OrOpt. Instances of parMinPoints or
// more points spread the build across pool; the lists are identical for
// every pool size.
func NeighborLists(pts []geom.Point, k int, pool par.Pool) [][]int {
	lists, _ := neighborLists(pts, k, pool)
	return lists
}

// prefixLists narrows sorted candidate lists to their first k entries.
// The lists are sorted by (d², index), so the prefixes are exactly the
// k-nearest lists neighborLists builds for k.
func prefixLists(lists [][]int, k int) [][]int {
	if len(lists) == 0 || len(lists[0]) <= k {
		return lists
	}
	out := make([][]int, len(lists))
	for i, l := range lists {
		out[i] = l[:k:k]
	}
	return out
}

// TwoOpt is the 2-opt pass over caller-supplied neighbour lists and
// caller-owned scratch state: a solver running several improvement passes
// builds the lists once and shares them between TwoOpt and OrOpt, and the
// steady-state pass allocates nothing once the buffers have grown to the
// instance size.
//
//mdglint:hotpath
func (s *Scratch) TwoOpt(pts []geom.Point, tour Tour, neigh [][]int) int {
	return s.twoOpt(pts, tour, neigh, nil)
}

// TwoOptSeeded is TwoOpt with the work queue seeded from the given point
// indices instead of the whole tour: only the seeds and points later
// touched by improving moves are examined, so the pass cost scales with
// the size of the disturbed region rather than the tour. Warm-start
// repair seeds it with the stops around spliced or ejected segments. An
// empty seed set is a no-op by construction.
//
//mdglint:hotpath
func (s *Scratch) TwoOptSeeded(pts []geom.Point, tour Tour, neigh [][]int, seeds []int) int {
	return s.twoOpt(pts, tour, neigh, seeds)
}

// seedQueue initialises the work queue: nil seeds enqueue the whole tour
// with every don't-look bit clear (the full pass); explicit seeds enqueue
// only themselves, with every other point parked behind a set bit until a
// move wakes it.
//
//mdglint:hotpath
func (s *Scratch) seedQueue(tour Tour, seeds []int) {
	if seeds == nil {
		//mdglint:allow-alloc(append reuses queue capacity retained in the scratch)
		s.queue = append(s.queue, tour...)
		return
	}
	for i := range s.dontLook {
		s.dontLook[i] = true
	}
	for _, v := range seeds {
		if s.dontLook[v] {
			s.dontLook[v] = false
			//mdglint:allow-alloc(append reuses queue capacity retained in the scratch)
			s.queue = append(s.queue, v)
		}
	}
}

//mdglint:hotpath
func (s *Scratch) twoOpt(pts []geom.Point, tour Tour, neigh [][]int, seeds []int) int {
	n := len(tour)
	if n < 4 {
		return 0
	}
	s.ensure(n)
	pos, dontLook := s.pos, s.dontLook
	for i, v := range tour {
		pos[v] = i
	}
	s.seedQueue(tour, seeds)
	head := 0
	moves := 0
	d := func(a, b int) float64 { return pts[a].Dist(pts[b]) }
	succ := func(i int) int { return tour[(pos[i]+1)%n] }
	pred := func(i int) int { return tour[(pos[i]-1+n)%n] }

	reverse := func(i, j int) {
		// Reverse tour positions i..j (inclusive, i<j).
		for i < j {
			tour[i], tour[j] = tour[j], tour[i]
			pos[tour[i]], pos[tour[j]] = i, j
			i++
			j--
		}
	}

	improveAt := func(a int) bool {
		// Try 2-opt moves removing edge (a, succ(a)) or (pred(a), a).
		for _, dir := range [2]bool{true, false} {
			var b int
			if dir {
				b = succ(a)
			} else {
				b = pred(a)
			}
			dab := d(a, b)
			for _, c := range neigh[a] {
				dac := d(a, c)
				if dac >= dab {
					break // neighbours sorted: no closer candidate remains
				}
				var e int
				if dir {
					e = succ(c)
				} else {
					e = pred(c)
				}
				if c == a || c == b || e == a {
					continue
				}
				// Replace edges (a,b) and (c,e) with (a,c) and (b,e).
				if dab+d(c, e) > dac+d(b, e)+1e-12 {
					// A 2-opt move reverses one of the two arcs between
					// the removed edges; pick the one that does not wrap
					// around the array boundary. In the successor
					// direction the removed edges are (a→b) and (c→e);
					// in the predecessor direction, (b→a) and (e→c).
					var i, j int
					if dir {
						if pos[b] <= pos[c] {
							i, j = pos[b], pos[c]
						} else {
							i, j = pos[e], pos[a]
						}
					} else {
						if pos[a] <= pos[e] {
							i, j = pos[a], pos[e]
						} else {
							i, j = pos[c], pos[b]
						}
					}
					if i >= j {
						continue // degenerate: would be a no-op, not a gain
					}
					reverse(i, j)
					for _, v := range [4]int{a, b, c, e} {
						if dontLook[v] {
							dontLook[v] = false
							//mdglint:allow-alloc(append reuses queue capacity retained in the scratch)
							s.queue = append(s.queue, v)
						}
					}
					moves++
					return true
				}
			}
		}
		return false
	}

	for head < len(s.queue) {
		a := s.queue[head]
		head++
		if dontLook[a] {
			continue
		}
		if improveAt(a) {
			//mdglint:allow-alloc(append reuses queue capacity retained in the scratch)
			s.queue = append(s.queue, a)
		} else {
			dontLook[a] = true
		}
	}
	return moves
}

// OrOpt improves tour in place by relocating chains of 1–3 consecutive
// stops to a better position (possibly reversed). It returns the number of
// improving moves applied. Run it after TwoOpt: the two neighbourhoods are
// complementary.
//
// The scan is first-improvement but keeps going within a pass: after an
// improving relocation it moves on to the next segment start rather than
// restarting the whole O(n²) sweep, so a pass is O(n²) regardless of how
// many moves it finds.
func OrOpt(pts []geom.Point, tour Tour) int {
	n := len(tour)
	if n < 5 {
		return 0
	}
	d := func(a, b int) float64 { return pts[a].Dist(pts[b]) }
	moves := 0
	maxSeg := min(3, n-3)
	buf := make(Tour, 0, n)
	improved := true
	for improved {
		improved = false
		for segLen := 1; segLen <= maxSeg; segLen++ {
			for i := 0; i < n; i++ {
				// Segment occupies positions i..i+segLen-1 (mod n).
				p0 := tour[(i-1+n)%n]      // before segment
				s0 := tour[i]              // segment head
				s1 := tour[(i+segLen-1)%n] // segment tail
				p1 := tour[(i+segLen)%n]   // after segment
				removed := d(p0, s0) + d(s1, p1) - d(p0, p1)
				if removed <= 1e-12 {
					continue
				}
				// Try inserting between every other consecutive pair.
				for j := 0; j < n; j++ {
					// Skip positions inside or adjacent to the segment.
					if within(i, segLen, j, n) || (j+1)%n == i {
						continue
					}
					a, b := tour[j], tour[(j+1)%n]
					forward := d(a, s0) + d(s1, b) - d(a, b)
					backward := d(a, s1) + d(s0, b) - d(a, b)
					rev := backward < forward
					added := forward
					if rev {
						added = backward
					}
					if added < removed-1e-12 {
						relocate(tour, i, segLen, j, rev, buf)
						moves++
						improved = true
						// This segment has moved; continue the pass at the
						// next start position instead of restarting.
						break
					}
				}
			}
		}
	}
	return moves
}

// OrOpt is Or-opt restricted to candidate insertion points near the
// segment endpoints, with don't-look bits, over caller-owned scratch
// state: each point anchors segment relocations, and points are
// re-examined only when a move touches them. A good insertion splices the
// segment between stops a and b where a is near the new head or b is near
// the new tail, so trying the tour edges on both sides of each near
// neighbour of s0 and s1 covers (for either orientation) the insertions
// the full scan would find. It returns the number of improving moves
// applied; the steady-state pass allocates nothing once the buffers have
// grown to the instance size.
//
//mdglint:hotpath
func (s *Scratch) OrOpt(pts []geom.Point, tour Tour, neigh [][]int) int {
	return s.orOpt(pts, tour, neigh, nil)
}

// OrOptSeeded is OrOpt with the work queue seeded from the given point
// indices, the relocation counterpart of TwoOptSeeded: only seeds and
// points woken by improving moves anchor segment relocations. Warm-start
// repair uses it to tidy the tour around spliced stops. An empty seed
// set is a no-op by construction.
//
//mdglint:hotpath
func (s *Scratch) OrOptSeeded(pts []geom.Point, tour Tour, neigh [][]int, seeds []int) int {
	return s.orOpt(pts, tour, neigh, seeds)
}

//mdglint:hotpath
func (s *Scratch) orOpt(pts []geom.Point, tour Tour, neigh [][]int, seeds []int) int {
	n := len(tour)
	if n < 5 {
		return 0
	}
	s.ensure(n)
	d := func(a, b int) float64 { return pts[a].Dist(pts[b]) }
	pos, dontLook := s.pos, s.dontLook
	rebuild := func() {
		for i, v := range tour {
			pos[v] = i
		}
	}
	rebuild()
	s.seedQueue(tour, seeds)
	head := 0
	moves := 0
	maxSeg := min(3, n-3)

	improveAt := func(s0 int) bool {
		i := pos[s0]
		for segLen := 1; segLen <= maxSeg; segLen++ {
			p0 := tour[(i-1+n)%n]
			s1 := tour[(i+segLen-1)%n]
			p1 := tour[(i+segLen)%n]
			removed := d(p0, s0) + d(s1, p1) - d(p0, p1)
			if removed <= 1e-12 {
				continue
			}
			for _, list := range [2][]int{neigh[s0], neigh[s1]} {
				for _, c := range list {
					// Anchor on the tour edge after c and the one before
					// it, so c can serve as either endpoint of the broken
					// edge.
					for _, j := range [2]int{pos[c], (pos[c] - 1 + n) % n} {
						if within(i, segLen, j, n) || (j+1)%n == i {
							continue
						}
						a, b := tour[j], tour[(j+1)%n]
						forward := d(a, s0) + d(s1, b) - d(a, b)
						backward := d(a, s1) + d(s0, b) - d(a, b)
						rev := backward < forward
						added := forward
						if rev {
							added = backward
						}
						if added < removed-1e-12 {
							relocate(tour, i, segLen, j, rev, s.reloc)
							rebuild()
							for _, v := range [6]int{p0, p1, s0, s1, a, b} {
								if dontLook[v] {
									dontLook[v] = false
									//mdglint:allow-alloc(append reuses queue capacity retained in the scratch)
									s.queue = append(s.queue, v)
								}
							}
							moves++
							return true
						}
					}
				}
			}
		}
		return false
	}

	for head < len(s.queue) {
		s0 := s.queue[head]
		head++
		if dontLook[s0] {
			continue
		}
		if improveAt(s0) {
			//mdglint:allow-alloc(append reuses queue capacity retained in the scratch)
			s.queue = append(s.queue, s0)
		} else {
			dontLook[s0] = true
		}
	}
	return moves
}

// within reports whether tour position j lies inside the segment starting
// at position i with the given length (mod n).
func within(i, segLen, j, n int) bool {
	for k := 0; k < segLen; k++ {
		if (i+k)%n == j {
			return true
		}
	}
	return false
}

// relocate moves the segment of segLen stops (at most 3) starting at
// position i to just after position j, optionally reversing it. It
// rebuilds the tour by value: remove the segment, then splice it back in
// after the stop that was at position j. buf is a caller-owned splice
// buffer with capacity >= len(tour); relocate never retains it.
func relocate(tour Tour, i, segLen, j int, rev bool, buf Tour) {
	var seg [3]int
	for k := 0; k < segLen; k++ {
		seg[k] = tour[(i+k)%len(tour)]
	}
	if rev {
		for a, b := 0, segLen-1; a < b; a, b = a+1, b-1 {
			seg[a], seg[b] = seg[b], seg[a]
		}
	}
	anchor := tour[j]
	out := buf[:0]
	for _, v := range tour {
		if v == seg[0] || (segLen > 1 && v == seg[1]) || (segLen > 2 && v == seg[2]) {
			continue
		}
		//mdglint:allow-alloc(append writes within buf's reserved capacity; relocate emits exactly len(tour) values)
		out = append(out, v)
		if v == anchor {
			//mdglint:allow-alloc(append writes within buf's reserved capacity; relocate emits exactly len(tour) values)
			out = append(out, seg[:segLen]...)
		}
	}
	copy(tour, out)
}
