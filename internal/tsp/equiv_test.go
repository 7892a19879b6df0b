package tsp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mobicol/internal/par"
	"mobicol/internal/rng"
)

// TestNeighborListsMatchFullSort pins the grid-backed construction to the
// quadratic oracle: same neighbours, same order, for every point.
func TestNeighborListsMatchFullSort(t *testing.T) {
	for _, n := range []int{5, 30, 200} {
		for seed := uint64(5); seed < 8; seed++ {
			pts := randPts(rng.New(seed), n, 300)
			k := min(neighborK, n-1)
			got := neighborLists(pts, neighborK)
			for i := range pts {
				want := sortedNeighbors(pts, i, k)
				if len(got[i]) != len(want) {
					t.Fatalf("n=%d seed=%d point %d: %d neighbours, want %d",
						n, seed, i, len(got[i]), len(want))
				}
				for j := range want {
					if got[i][j] != want[j] {
						t.Fatalf("n=%d seed=%d point %d slot %d: %d, want %d",
							n, seed, i, j, got[i][j], want[j])
					}
				}
			}
		}
	}
}

// TestNeighborListsCoincidentPoints exercises the degenerate-geometry
// fallback: every point at the same location still yields full lists.
func TestNeighborListsCoincidentPoints(t *testing.T) {
	pts := randPts(rng.New(1), 6, 0) // Uniform(0,0) puts every point at the origin
	lists := neighborLists(pts, neighborK)
	for i, l := range lists {
		if len(l) != 5 {
			t.Fatalf("point %d: %d neighbours, want 5", i, len(l))
		}
		for _, j := range l {
			if j == i {
				t.Fatalf("point %d lists itself", i)
			}
		}
	}
}

// TestNeighborListsCapped: every list is exactly k long with capacity k,
// so an append to one list reallocates instead of overwriting the next
// list in the shared backing array.
func TestNeighborListsCapped(t *testing.T) {
	for _, tc := range []struct {
		n     int
		width float64
	}{{2, 100}, {5, 100}, {200, 300}, {6, 0}} {
		pts := randPts(rng.New(3), tc.n, tc.width)
		k := min(neighborK, tc.n-1)
		lists := neighborLists(pts, neighborK)
		for i, l := range lists {
			if len(l) != k || cap(l) != k {
				t.Fatalf("n=%d point %d: len %d cap %d, want both %d", tc.n, i, len(l), cap(l), k)
			}
		}
		next := lists[1][0]
		_ = append(lists[0], -1)
		if lists[1][0] != next {
			t.Fatalf("n=%d: append to list 0 overwrote list 1", tc.n)
		}
	}
}

// TestSolveSharesSparseNeighborLists pins the shared-list path: on the
// sparse greedy-edge path, Solve hands the construction's k-nearest lists
// to the local searches, and must return the same tour as GreedyEdge
// followed by the three improvement passes over separately built lists.
func TestSolveSharesSparseNeighborLists(t *testing.T) {
	opts := DefaultOptions()
	n := greedyEdgeDenseMax + 300
	for seed := uint64(31); seed < 33; seed++ {
		pts := randPts(rng.New(seed), n, 2000)
		want := GreedyEdge(pts)
		neigh := NeighborLists(pts, neighborK)
		var s Scratch
		s.TwoOpt(pts, want, neigh)
		s.OrOpt(pts, want, neigh)
		s.TwoOpt(pts, want, neigh)
		got := Solve(pts, opts)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: Solve's tour differs from GreedyEdge + separate lists", seed)
		}
	}
}

// TestSolveBestPoolEquivalence pins the tentpole contract for the
// multistart layer: any pool size returns the identical tour.
func TestSolveBestPoolEquivalence(t *testing.T) {
	opts := DefaultOptions()
	for _, n := range []int{40, 120} {
		for seed := uint64(51); seed < 54; seed++ {
			pts := randPts(rng.New(seed), n, 250)
			seqTour := SolveBestPool(pts, opts, 8, seed, par.Seq())
			parTour := SolveBestPool(pts, opts, 8, seed, par.Workers(8))
			wrapped := SolveBest(pts, opts, 8, seed)
			if len(seqTour) != len(parTour) || len(seqTour) != len(wrapped) {
				t.Fatalf("n=%d seed=%d: tour lengths differ", n, seed)
			}
			for i := range seqTour {
				if seqTour[i] != parTour[i] {
					t.Fatalf("n=%d seed=%d: position %d: %d vs %d",
						n, seed, i, parTour[i], seqTour[i])
				}
				if seqTour[i] != wrapped[i] {
					t.Fatalf("n=%d seed=%d: SolveBest wrapper diverged at %d", n, seed, i)
				}
			}
		}
	}
}

// TestOrOptNeighborsNeverLengthens guards the new neighbour-restricted
// pass: it must only ever shorten the tour and leave it a permutation.
func TestOrOptNeighborsNeverLengthens(t *testing.T) {
	for seed := uint64(60); seed < 66; seed++ {
		pts := randPts(rng.New(seed), 90, 200)
		tour := NearestNeighbor(pts, 0)
		neigh := neighborLists(pts, neighborK)
		before := tour.Length(pts)
		moves := OrOptNeighbors(pts, tour, neigh)
		after := tour.Length(pts)
		if err := tour.Validate(len(pts)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if after > before+1e-9 {
			t.Fatalf("seed %d: lengthened %.4f -> %.4f", seed, before, after)
		}
		if moves > 0 && !(after < before) {
			t.Fatalf("seed %d: %d moves claimed but no improvement", seed, moves)
		}
	}
}

func BenchmarkSolve(b *testing.B) {
	for _, n := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := randPts(rng.New(1), n, 200*math.Sqrt(float64(n)/100))
			opts := DefaultOptions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Solve(pts, opts)
			}
		})
	}
}
