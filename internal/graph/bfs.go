package graph

// BFSResult holds hop counts and parent pointers from a breadth-first
// search. Unreached vertices have Dist -1 and Parent -1.
type BFSResult struct {
	Dist   []int // hop count from the nearest source
	Parent []int // predecessor on a shortest hop path, -1 at sources
}

// BFS runs breadth-first search from a single source.
func BFS(g *Graph, src int) *BFSResult { return MultiBFS(g, []int{src}) }

// MultiBFS runs breadth-first search from several sources at once: Dist is
// the hop count to the nearest source. The routing layer uses this with all
// "track-adjacent" sensors as sources to compute relay hop counts toward a
// mobile collector's path.
func MultiBFS(g *Graph, srcs []int) *BFSResult {
	r := &BFSResult{
		Dist:   make([]int, g.N()),
		Parent: make([]int, g.N()),
	}
	for i := range r.Dist {
		r.Dist[i] = -1
		r.Parent[i] = -1
	}
	queue := make([]int, 0, g.N())
	for _, s := range srcs {
		g.checkVertex(s)
		if r.Dist[s] == 0 {
			continue // duplicate source
		}
		r.Dist[s] = 0
		queue = append(queue, s)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if r.Dist[v] < 0 {
				r.Dist[v] = r.Dist[u] + 1
				r.Parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return r
}
