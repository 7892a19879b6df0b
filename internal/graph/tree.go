package graph

// Tree is a rooted tree over dense integer vertices, stored as parent
// pointers plus child lists. The capacitated planner walks its routing
// trees with it.
type Tree struct {
	Root     int
	Parent   []int   // Parent[Root] == -1; -1 also marks vertices outside the tree
	Children [][]int // derived from Parent
}

// NewTreeFromParents builds a Tree from a parent-pointer array, e.g. the
// Parent field of a BFS result. Vertices with Parent -1 other than the
// root are treated as absent (useful for forests restricted to one
// component).
func NewTreeFromParents(root int, parent []int) *Tree {
	t := &Tree{Root: root, Parent: parent, Children: make([][]int, len(parent))}
	for v, p := range parent {
		if p >= 0 {
			t.Children[p] = append(t.Children[p], v)
		}
	}
	return t
}

// Preorder returns the vertices of the tree in depth-first preorder
// starting at the root. For an MST of tour stops, visiting stops in
// preorder and shortcutting repeats is the classic 2-approximation for
// metric TSP.
func (t *Tree) Preorder() []int {
	out := make([]int, 0, len(t.Parent))
	stack := []int{t.Root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		// Push children in reverse so the first child is visited first.
		kids := t.Children[v]
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	return out
}
