package geom

import (
	"math"
	"sort"
)

// KDTree is a static 2-d tree over a point set supporting nearest-neighbour
// and radius queries in O(log n) expected time. The tour planners use it to
// find the closest unvisited stop (nearest-neighbour TSP construction) and
// to assign sensors to their nearest polling point.
type KDTree struct {
	pts   []Point
	nodes []kdNode
	root  int32
}

type kdNode struct {
	idx         int32 // index into pts
	left, right int32 // -1 when absent
	axis        uint8 // 0 = x, 1 = y
}

// NewKDTree builds a balanced tree over pts. The tree keeps a reference to
// pts; callers must not mutate the slice afterwards.
func NewKDTree(pts []Point) *KDTree {
	t := &KDTree{pts: pts, root: -1}
	if len(pts) == 0 {
		return t
	}
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
	}
	t.nodes = make([]kdNode, 0, len(pts))
	t.root = t.build(idx, 0)
	return t
}

func (t *KDTree) build(idx []int32, depth int) int32 {
	if len(idx) == 0 {
		return -1
	}
	axis := uint8(depth & 1)
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := t.pts[idx[a]], t.pts[idx[b]]
		if axis == 0 {
			if pa.X != pb.X {
				return pa.X < pb.X
			}
			return pa.Y < pb.Y
		}
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return pa.X < pb.X
	})
	m := len(idx) / 2
	node := kdNode{idx: idx[m], axis: axis}
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, node)
	left := t.build(idx[:m], depth+1)
	right := t.build(idx[m+1:], depth+1)
	t.nodes[id].left = left
	t.nodes[id].right = right
	return id
}

// Nearest returns the index of the point closest to q and its distance.
// It returns (-1, +Inf) for an empty tree. The skip function, when non-nil,
// excludes points (e.g. already-visited tour stops).
func (t *KDTree) Nearest(q Point, skip func(i int) bool) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	var rec func(n int32)
	rec = func(n int32) {
		if n < 0 {
			return
		}
		node := t.nodes[n]
		p := t.pts[node.idx]
		if skip == nil || !skip(int(node.idx)) {
			d2 := p.Dist2(q)
			if d2 < bestD2 || (d2 == bestD2 && int(node.idx) < best) {
				best, bestD2 = int(node.idx), d2
			}
		}
		var delta float64
		if node.axis == 0 {
			delta = q.X - p.X
		} else {
			delta = q.Y - p.Y
		}
		near, far := node.left, node.right
		if delta > 0 {
			near, far = far, near
		}
		rec(near)
		if delta*delta <= bestD2 {
			rec(far)
		}
	}
	rec(t.root)
	if best < 0 {
		return -1, math.Inf(1)
	}
	return best, math.Sqrt(bestD2)
}
