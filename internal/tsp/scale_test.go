package tsp

import (
	"slices"
	"testing"

	"mobicol/internal/par"
	"mobicol/internal/rng"
)

// TestGreedyEdgeSparseValid pins the large-n construction path: with
// k-nearest candidate lists, greedy-edge must still emit a valid
// Hamiltonian cycle and stay competitive with nearest neighbour.
func TestGreedyEdgeSparseValid(t *testing.T) {
	n := 2548
	pts := randPts(rng.New(3), n, 2000)
	tour := greedyEdge(pts)
	if err := tour.validate(n); err != nil {
		t.Fatalf("sparse greedy-edge: %v", err)
	}
	nn := NearestNeighbor(pts, 0)
	if tour.Length(pts) > nn.Length(pts)*1.1 {
		t.Fatalf("sparse greedy-edge %.0f much worse than NN %.0f",
			tour.Length(pts), nn.Length(pts))
	}
}

// TestGreedyEdgeSparseMatchesDenseQuality compares the sparse
// construction with greedy matching over every edge on the same mid-size
// instance: the k-nearest edge set should land within a few percent.
func TestGreedyEdgeSparseMatchesDenseQuality(t *testing.T) {
	for seed := uint64(9); seed < 12; seed++ {
		pts := randPts(rng.New(seed), 600, 800)
		dense := greedyEdgeDenseOracle(pts)
		sparse, _ := greedyEdgeSparse(pts, NeighborLists(pts, neighborK, par.Pool{}), par.Pool{})
		if err := sparse.validate(len(pts)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sparse.Length(pts) > dense.Length(pts)*1.08 {
			t.Fatalf("seed %d: sparse %.1f vs dense %.1f", seed,
				sparse.Length(pts), dense.Length(pts))
		}
	}
}

// TestSeededMatchesFullWhenSeededEverywhere pins the seeded local-search
// variants to their full counterparts: seeding with the whole tour in
// tour order is the same initial queue, so the move sequences — and the
// final tours — are identical.
func TestSeededMatchesFullWhenSeededEverywhere(t *testing.T) {
	for seed := uint64(21); seed < 25; seed++ {
		pts := randPts(rng.New(seed), 150, 400)
		neigh := NeighborLists(pts, neighborK, par.Pool{})
		base := greedyEdge(pts)

		full := slices.Clone(base)
		seeded := slices.Clone(base)
		var s1, s2 Scratch
		m1 := s1.TwoOpt(pts, full, neigh)
		m2 := s2.TwoOptSeeded(pts, seeded, neigh, []int(seeded))
		if m1 != m2 || !slices.Equal(full, seeded) {
			t.Fatalf("seed %d: TwoOptSeeded(all) diverged from TwoOpt (%d vs %d moves)", seed, m2, m1)
		}
		m1 = s1.OrOpt(pts, full, neigh)
		m2 = s2.OrOptSeeded(pts, seeded, neigh, []int(seeded))
		if m1 != m2 || !slices.Equal(full, seeded) {
			t.Fatalf("seed %d: OrOptSeeded(all) diverged from OrOpt (%d vs %d moves)", seed, m2, m1)
		}
	}
}

// TestSeededEmptyIsNoop: an empty seed set must leave the tour untouched
// — the invariant warm-start repair relies on for the Δ=∅ case.
func TestSeededEmptyIsNoop(t *testing.T) {
	pts := randPts(rng.New(5), 80, 300)
	neigh := NeighborLists(pts, neighborK, par.Pool{})
	tour := greedyEdge(pts)
	before := slices.Clone(tour)
	var s Scratch
	if m := s.TwoOptSeeded(pts, tour, neigh, nil2()); m != 0 || !slices.Equal(tour, before) {
		t.Fatalf("TwoOptSeeded(empty) moved: %d", m)
	}
	if m := s.OrOptSeeded(pts, tour, neigh, nil2()); m != 0 || !slices.Equal(tour, before) {
		t.Fatalf("OrOptSeeded(empty) moved: %d", m)
	}
}

// nil2 returns an empty non-nil seed slice: nil means "seed everywhere",
// empty means "seed nothing".
func nil2() []int { return []int{} }

// TestSeededLocalises: seeding a single point must examine (and move)
// only near the seed, leaving a far-away already-locally-optimal region
// alone, and never lengthen the tour.
func TestSeededLocalises(t *testing.T) {
	pts := randPts(rng.New(7), 200, 500)
	neigh := NeighborLists(pts, neighborK, par.Pool{})
	tour := NearestNeighbor(pts, 0)
	before := tour.Length(pts)
	var s Scratch
	s.TwoOptSeeded(pts, tour, neigh, []int{tour[10], tour[11]})
	if err := tour.validate(len(pts)); err != nil {
		t.Fatal(err)
	}
	if after := tour.Length(pts); after > before+1e-9 {
		t.Fatalf("seeded 2-opt lengthened the tour: %.3f -> %.3f", before, after)
	}
}

// TestSeededMatchesFullOnDuplicateSeeds: duplicate seeds collapse via the
// don't-look bits, so the result matches the deduplicated seed set.
func TestSeededMatchesFullOnDuplicateSeeds(t *testing.T) {
	pts := randPts(rng.New(8), 100, 300)
	neigh := NeighborLists(pts, neighborK, par.Pool{})
	a := NearestNeighbor(pts, 0)
	b := slices.Clone(a)
	var s1, s2 Scratch
	m1 := s1.TwoOptSeeded(pts, a, neigh, []int{3, 7})
	m2 := s2.TwoOptSeeded(pts, b, neigh, []int{3, 7, 3, 7, 7})
	if m1 != m2 || !slices.Equal(a, b) {
		t.Fatalf("duplicate seeds diverged: %d vs %d moves", m1, m2)
	}
}
