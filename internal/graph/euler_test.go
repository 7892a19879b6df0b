package graph

import (
	"testing"

	"mobicol/internal/rng"
)

// walkUsesEachEdgeOnce verifies the closed walk traverses every edge
// exactly once and is connected step to step.
func walkUsesEachEdgeOnce(t *testing.T, n int, edges []Edge, walk []int) {
	t.Helper()
	if len(walk) != len(edges)+1 {
		t.Fatalf("walk length %d, want %d", len(walk), len(edges)+1)
	}
	if walk[0] != walk[len(walk)-1] {
		t.Fatalf("walk not closed: %v", walk)
	}
	remaining := map[[2]int]int{}
	for _, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		remaining[[2]int{u, v}]++
	}
	for i := 1; i < len(walk); i++ {
		u, v := walk[i-1], walk[i]
		if u > v {
			u, v = v, u
		}
		if remaining[[2]int{u, v}] == 0 {
			t.Fatalf("walk reuses or invents edge (%d,%d)", u, v)
		}
		remaining[[2]int{u, v}]--
	}
}

func TestEulerCircuitTriangle(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {2, 0}}
	walk, err := EulerCircuit(3, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	walkUsesEachEdgeOnce(t, 3, edges, walk)
	if walk[0] != 0 {
		t.Fatalf("walk starts at %d", walk[0])
	}
}

func TestEulerCircuitMultigraph(t *testing.T) {
	// Two parallel edges form a valid circuit 0-1-0.
	edges := []Edge{{0, 1}, {0, 1}}
	walk, err := EulerCircuit(2, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	walkUsesEachEdgeOnce(t, 2, edges, walk)
}

func TestEulerCircuitFigureEight(t *testing.T) {
	// Two triangles sharing vertex 0: all even degrees.
	edges := []Edge{
		{0, 1}, {1, 2}, {2, 0},
		{0, 3}, {3, 4}, {4, 0},
	}
	walk, err := EulerCircuit(5, edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	walkUsesEachEdgeOnce(t, 5, edges, walk)
}

func TestEulerCircuitRejectsOddDegree(t *testing.T) {
	if _, err := EulerCircuit(3, []Edge{{0, 1}, {1, 2}}, 0); err == nil {
		t.Fatal("odd-degree graph accepted")
	}
}

func TestEulerCircuitRejectsDisconnected(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 1}, {2, 3}, {2, 3}}
	if _, err := EulerCircuit(4, edges, 0); err == nil {
		t.Fatal("disconnected edge set accepted")
	}
}

func TestEulerCircuitRejectsIsolatedStart(t *testing.T) {
	edges := []Edge{{1, 2}, {1, 2}}
	if _, err := EulerCircuit(3, edges, 0); err == nil {
		t.Fatal("edge-free start accepted")
	}
	if _, err := EulerCircuit(3, edges, 5); err == nil {
		t.Fatal("out-of-range start accepted")
	}
}

func TestEulerCircuitEmpty(t *testing.T) {
	walk, err := EulerCircuit(3, nil, 1)
	if err != nil || len(walk) != 1 || walk[0] != 1 {
		t.Fatalf("empty circuit = %v, %v", walk, err)
	}
}

func TestEulerCircuitRandomEvenGraphs(t *testing.T) {
	s := rng.New(80)
	for trial := 0; trial < 20; trial++ {
		// Build an even multigraph as a union of random cycles through
		// vertex 0 (guaranteeing connectivity to the start).
		n := 4 + s.Intn(20)
		var edges []Edge
		cycles := 1 + s.Intn(4)
		for c := 0; c < cycles; c++ {
			perm := s.Perm(n)
			// Rotate so the cycle includes vertex 0.
			for i, v := range perm {
				if v == 0 {
					perm[0], perm[i] = perm[i], perm[0]
					break
				}
			}
			k := 3 + s.Intn(n-3)
			cyc := perm[:k]
			for i := 0; i < k; i++ {
				edges = append(edges, Edge{cyc[i], cyc[(i+1)%k]})
			}
		}
		walk, err := EulerCircuit(n, edges, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		walkUsesEachEdgeOnce(t, n, edges, walk)
	}
}
