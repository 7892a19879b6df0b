// Package graph provides the graph substrate for the planners:
// adjacency-list graphs, breadth-first search, the dense-Prim minimum
// spanning tree of a complete graph, Euler circuits, union–find,
// connected components, and rooted trees. Vertices are dense integers
// [0, N), which maps directly onto sensor IDs.
package graph

import "fmt"

// Edge is an undirected edge between vertices U and V.
type Edge struct {
	U, V int
}

// Graph is an undirected, unweighted graph in adjacency-list form: the
// planners ask only who can reach whom in one hop.
type Graph struct {
	n   int
	adj [][]int
	m   int
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		//mdglint:ignore nopanic documented precondition on a programmer-supplied size, like make with a negative length
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge (u, v). Self-loops are rejected;
// parallel edges are permitted (the algorithms tolerate them).
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		//mdglint:ignore nopanic self-loops are construction bugs in this codebase's geometric graphs, not data conditions
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	g.checkVertex(u)
	g.checkVertex(v)
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
}

func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		//mdglint:ignore nopanic bounds check mirroring slice-index semantics
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}
