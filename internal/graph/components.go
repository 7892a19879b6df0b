package graph

// Components returns the connected components of g as vertex lists, in
// order of their smallest vertex, plus a comp array mapping each vertex to
// its component index. Sensor networks in the paper's sparse settings are
// frequently disconnected; mobile collection handles that natively (the
// collector just drives to each component), so the planners need the
// decomposition.
func Components(g *Graph) (comps [][]int, comp []int) {
	n := g.N()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var queue []int
	for v := 0; v < n; v++ {
		if comp[v] >= 0 {
			continue
		}
		id := len(comps)
		comp[v] = id
		queue = append(queue[:0], v)
		members := []int{v}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.adj[u] {
				if comp[v] < 0 {
					comp[v] = id
					queue = append(queue, v)
					members = append(members, v)
				}
			}
		}
		comps = append(comps, members)
	}
	return comps, comp
}
