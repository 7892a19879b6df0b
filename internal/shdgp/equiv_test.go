package shdgp

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"mobicol/internal/bitset"
	"mobicol/internal/check"
	"mobicol/internal/cover"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/par"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

// subsetOf reports whether every element of a is in b.
func subsetOf(a, b *bitset.Set) bool {
	rest := a.Clone()
	rest.AndNot(b)
	return rest.Empty()
}

// dropRedundantOracle is the pre-cache fixed-point implementation, kept
// verbatim: remove the first redundant stop, restart, repeat.
func dropRedundantOracle(inst *cover.Instance, chosen *[]int) bool {
	covers := inst.CoverSets()
	dropped := false
	for {
		cur := *chosen
		removeAt := -1
		for i := range cur {
			rest := bitset.New(inst.Universe)
			for j, c := range cur {
				if j != i {
					rest.Or(covers[c])
				}
			}
			if subsetOf(covers[cur[i]], rest) {
				removeAt = i
				break
			}
		}
		if removeAt < 0 {
			return dropped
		}
		*chosen = append(cur[:removeAt], cur[removeAt+1:]...)
		dropped = true
	}
}

func TestDropRedundantMatchesOracle(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		p := deploy(180, 220, 30, seed)
		inst, err := p.Instance()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		chosen, err := inst.Greedy(p.Net.Sink)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Greedy covers are rarely redundant; pad with extra candidates so
		// the removal path actually runs.
		padded := append([]int(nil), chosen...)
		for c := 0; c < inst.NumCandidates() && len(padded) < len(chosen)+12; c += 5 {
			padded = append(padded, c)
		}
		got := append([]int(nil), padded...)
		want := append([]int(nil), padded...)
		gotDrop := dropRedundant(inst, &got, newRefineScratch(inst))
		wantDrop := dropRedundantOracle(inst, &want)
		if gotDrop != wantDrop {
			t.Fatalf("seed %d: dropped=%v, oracle %v", seed, gotDrop, wantDrop)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: kept %d stops, oracle kept %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: slot %d = %d, oracle %d", seed, i, got[i], want[i])
			}
		}
	}
}

// relocateStopsOracle is the pre-cache implementation: critical sets via
// an O(k) bitset union per stop, replacements via a scan of every
// candidate.
func relocateStopsOracle(p *Problem, inst *cover.Instance, chosen []int) bool {
	if len(chosen) == 0 {
		return false
	}
	pts := make([]geom.Point, 0, len(chosen)+1)
	pts = append(pts, p.Net.Sink)
	for _, c := range chosen {
		pts = append(pts, inst.Candidates[c])
	}
	tour := tsp.Solve(pts, tsp.Options{Construction: tsp.ConstructGreedy, TwoOpt: true})
	tour.RotateTo(0)
	prev := make([]geom.Point, len(chosen))
	next := make([]geom.Point, len(chosen))
	for ti, idx := range tour {
		if idx == 0 {
			continue
		}
		prev[idx-1] = pts[tour[(ti-1+len(tour))%len(tour)]]
		next[idx-1] = pts[tour[(ti+1)%len(tour)]]
	}
	covers := inst.CoverSets()
	moved := false
	for i := range chosen {
		critical := covers[chosen[i]].Clone()
		for j, c := range chosen {
			if j != i {
				critical.AndNot(covers[c])
			}
		}
		cur := inst.Candidates[chosen[i]]
		bestCost := prev[i].Dist(cur) + cur.Dist(next[i])
		bestCand := chosen[i]
		for c := range covers {
			if c == chosen[i] {
				continue
			}
			if !subsetOf(critical, covers[c]) {
				continue
			}
			alt := inst.Candidates[c]
			if cost := prev[i].Dist(alt) + alt.Dist(next[i]); cost < bestCost-1e-9 {
				bestCost = cost
				bestCand = c
			}
		}
		if bestCand != chosen[i] {
			chosen[i] = bestCand
			moved = true
		}
	}
	return moved
}

// TestRelocateStopsMatchesOracle pins relocateStops — coverer lists for
// stops with critical sensors, a candidate range query for stops without
// — to the full-scan oracle over several passes, on uniform fields up to
// n=2000 and on a clustered one.
func TestRelocateStopsMatchesOracle(t *testing.T) {
	cases := []struct {
		name  string
		cfg   wsn.Config
		seeds []uint64
	}{
		{"uniform-160", wsn.Config{N: 160, FieldSide: 240, Range: 30}, []uint64{10, 11, 12, 13, 14, 15}},
		{"uniform-2000", wsn.Config{N: 2000, FieldSide: 200 * math.Sqrt(20), Range: 30}, []uint64{1, 2}},
		{"clustered-400", wsn.Config{N: 400, FieldSide: 400, Range: 30, Placement: wsn.Clustered}, []uint64{3, 4, 5}},
	}
	rangeQueried := false
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			cfg := tc.cfg
			cfg.Seed = seed
			p := NewProblem(wsn.MustDeploy(cfg))
			inst, err := p.Instance()
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			chosen, err := inst.Greedy(p.Net.Sink)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			got := append([]int(nil), chosen...)
			want := append([]int(nil), chosen...)
			rs := newRefineScratch(inst)
			for pass := 0; pass < 3; pass++ {
				gotMoved := relocateStops(p, inst, got, rs)
				wantMoved := relocateStopsOracle(p, inst, want)
				if gotMoved != wantMoved {
					t.Fatalf("%s seed %d pass %d: moved=%v, oracle %v", tc.name, seed, pass, gotMoved, wantMoved)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s seed %d pass %d: stop %d relocated to %d, oracle chose %d",
							tc.name, seed, pass, i, got[i], want[i])
					}
				}
				if !gotMoved {
					break
				}
			}
			// The candidate index is built only when a stop without
			// critical sensors needs the range query.
			rangeQueried = rangeQueried || rs.cands != nil
		}
	}
	if !rangeQueried {
		t.Fatal("no case took the no-critical-sensor branch; the range query went untested")
	}
}

// TestPlanPoolEquivalence pins the tentpole contract end to end: a full
// Plan run under an 8-worker pool must match the sequential run on every
// deterministic output — stops, assignment, and the canonical obs trace
// (which embeds tour lengths, span structure, and every metric).
func TestPlanPoolEquivalence(t *testing.T) {
	canonicalRun := func(n int, side float64, seed uint64, pool par.Pool) (*Solution, []string) {
		t.Helper()
		p := deploy(n, side, 30, seed)
		p.Pool = pool
		var buf bytes.Buffer
		tr := obs.New(&buf)
		opts := DefaultPlannerOptions()
		opts.Obs = tr
		sol, err := Plan(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Equivalence alone is not enough — both runs must also be
		// *valid*: full single-hop coverage on a sink-anchored tour.
		if err := check.Plan(p.Net, sol.Plan, check.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := sol.Validate(p); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
			c, err := obs.CanonicalLine(line)
			if err != nil {
				t.Fatalf("trace line %q: %v", line, err)
			}
			if c != nil {
				lines = append(lines, string(c))
			}
		}
		return sol, lines
	}
	cases := []struct {
		n    int
		side float64
	}{{100, 200}, {200, 300}}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			seqSol, seqTrace := canonicalRun(tc.n, tc.side, seed, par.Seq())
			parSol, parTrace := canonicalRun(tc.n, tc.side, seed, par.Workers(8))
			if len(parSol.Plan.Stops) != len(seqSol.Plan.Stops) {
				t.Fatalf("n=%d seed=%d: %d stops parallel, %d sequential",
					tc.n, seed, len(parSol.Plan.Stops), len(seqSol.Plan.Stops))
			}
			for i := range seqSol.Plan.Stops {
				if !parSol.Plan.Stops[i].Eq(seqSol.Plan.Stops[i]) {
					t.Fatalf("n=%d seed=%d: stop %d differs", tc.n, seed, i)
				}
			}
			for i := range seqSol.Plan.UploadAt {
				if parSol.Plan.UploadAt[i] != seqSol.Plan.UploadAt[i] {
					t.Fatalf("n=%d seed=%d: sensor %d uploads at %d vs %d",
						tc.n, seed, i, parSol.Plan.UploadAt[i], seqSol.Plan.UploadAt[i])
				}
			}
			if len(parTrace) != len(seqTrace) {
				t.Fatalf("n=%d seed=%d: trace lengths differ: %d vs %d",
					tc.n, seed, len(parTrace), len(seqTrace))
			}
			for i := range seqTrace {
				if parTrace[i] != seqTrace[i] {
					t.Fatalf("n=%d seed=%d: trace line %d differs:\npar: %s\nseq: %s",
						tc.n, seed, i, parTrace[i], seqTrace[i])
				}
			}
		}
	}
}

func BenchmarkPlan(b *testing.B) {
	for _, n := range []int{100, 500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			side := 200 * math.Sqrt(float64(n)/100)
			p := deploy(n, side, 30, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Plan(p, DefaultPlannerOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
