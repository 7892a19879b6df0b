package shdgp

import (
	"fmt"
	"slices"

	"mobicol/internal/cover"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/tsp"
)

// PlannerOptions configures the heuristic planner.
type PlannerOptions struct {
	// TSP configures tour construction and improvement.
	TSP tsp.Options
	// Refine enables the drop-redundant-stop and relocate-stop passes.
	Refine bool
	// RefinePasses bounds refinement iterations (default 3).
	RefinePasses int
	// ExactCover uses the exact minimum-cardinality cover instead of
	// greedy (small instances only; greedy is the default at scale).
	ExactCover bool
	// Obs, when non-nil, receives per-phase spans (candidates, cover,
	// refine, tsp) and planner metrics. Nil disables tracing.
	Obs *obs.Trace
	// Step, when non-nil, is consulted at every phase boundary
	// (candidates → cover → refine → tsp); a non-nil return aborts the
	// plan with that error. The engine seam wires context cancellation
	// here (opts.Step = ctx.Err), so a canceled plan stops at the next
	// boundary instead of running to completion. A Step that always
	// returns nil never changes the planner's output.
	Step func() error
}

// step consults the phase-boundary hook, if any.
func (o PlannerOptions) step() error {
	if o.Step == nil {
		return nil
	}
	return o.Step()
}

// DefaultPlannerOptions is the configuration the experiments label
// "SHDG": greedy covering, greedy-edge + 2-opt + Or-opt tour, refinement.
func DefaultPlannerOptions() PlannerOptions {
	return PlannerOptions{TSP: tsp.DefaultOptions(), Refine: true, RefinePasses: 3}
}

// Plan runs the heuristic single-collector planner:
//
//  1. Generate candidate stops and pick a cover greedily, breaking ties
//     toward the sink so stops gravitate inward.
//  2. Order sink + stops with the TSP engine.
//  3. Refine: drop stops whose sensors are absorbed by remaining stops,
//     and relocate each stop to the candidate that covers the same
//     critical sensors with the smallest tour detour.
//
//mdglint:hotpath
func Plan(p *Problem, opts PlannerOptions) (*Solution, error) {
	root := opts.Obs.Start("plan")
	defer root.End()

	if err := opts.step(); err != nil {
		return nil, err
	}
	spCand := root.Child("candidates")
	inst, err := p.Instance()
	if err != nil {
		spCand.End()
		return nil, err
	}
	spCand.SetStr("strategy", p.Strategy.String())
	spCand.SetInt("candidates", int64(len(inst.Candidates)))
	spCand.SetInt("universe", int64(inst.Universe))
	spCand.Gauge("cover.candidates", float64(len(inst.Candidates)))
	spCand.End()

	if err := opts.step(); err != nil {
		return nil, err
	}
	spCover := root.Child("cover")
	var chosen []int
	if opts.ExactCover {
		chosen, _, err = inst.ExactMin(2_000_000)
		spCover.SetInt("chosen", int64(len(chosen)))
	} else {
		chosen, err = inst.GreedyObs(p.Net.Sink, spCover)
	}
	spCover.End()
	if err != nil {
		return nil, err
	}
	if err := opts.step(); err != nil {
		return nil, err
	}
	coverStops := len(chosen)

	if opts.Refine {
		passes := opts.RefinePasses
		if passes <= 0 {
			passes = 3
		}
		spRefine := root.Child("refine")
		rs := newRefineScratch(inst)
		ran := 0
		for pass := 0; pass < passes; pass++ {
			ran++
			changed := dropRedundant(inst, &chosen, rs)
			changed = relocateStops(p, inst, chosen, rs) || changed
			if !changed {
				break
			}
		}
		spRefine.SetInt("passes", int64(ran))
		spRefine.SetInt("dropped", int64(coverStops-len(chosen)))
		spRefine.Count("shdgp.relocate_evals", rs.relocateEvals)
		spRefine.End()
	}

	if err := opts.step(); err != nil {
		return nil, err
	}
	spTSP := root.Child("tsp")
	tspOpts := opts.TSP
	tspOpts.Obs = spTSP
	tspOpts.Pool = p.Pool
	sol := buildSolution(p, inst, chosen, tspOpts, algorithmName(opts))
	spTSP.SetInt("stops", int64(len(chosen)))
	//mdglint:ignore unitcheck obs boundary: trace fields carry raw numbers
	spTSP.SetFloat("tour_m", float64(sol.Length))
	spTSP.End()

	sol.Stats.Candidates = len(inst.Candidates)
	sol.Stats.Universe = inst.Universe
	sol.Stats.CoverStops = coverStops
	root.Gauge("planner.stops", float64(len(sol.Plan.Stops)))
	//mdglint:ignore unitcheck obs boundary: metric gauges carry raw numbers
	root.Gauge("planner.tour_m", float64(sol.Length))
	return sol, nil
}

func algorithmName(opts PlannerOptions) string {
	name := "shdg-greedy"
	if opts.ExactCover {
		name = "shdg-exactcover"
	}
	if opts.Refine {
		name += "+refine"
	}
	return name
}

// refineScratch holds the buffers the refinement passes share: coverage
// counts, the per-sensor coverer lists (transposed covers), the
// critical-sensor scratch, the tour-neighbour arrays, and the spatial
// index over the candidates. Plan builds one per call and reuses it
// across every refinement pass, so the passes themselves stay
// allocation-free.
type refineScratch struct {
	counts []int // counts[s] = kept stops covering sensor s
	// Transpose of the instance's CSR covers: sensor s is covered by
	// candidates covIdx[covOff[s]:covOff[s+1]], ascending.
	covOff   []int32
	covIdx   []int32
	critical []int32      // scratch for one stop's critical sensors, ascending
	pts      []geom.Point // sink + stop positions for the proxy tour
	prev     []geom.Point // prev[i] = tour predecessor of stop i
	next     []geom.Point // next[i] = tour successor of stop i
	// cands indexes the instance's candidates for the relocation range
	// query; nil until a stop without critical sensors first needs it.
	cands *geom.GridIndex
	hits  []int // range-query hits, reused across stops
	// relocateEvals counts the candidates relocateStops has evaluated
	// (the "shdgp.relocate_evals" counter).
	relocateEvals int64
}

// newRefineScratch sizes the buffers for the instance. The coverer lists
// depend only on the instance's candidate covers — not on the current
// selection — so building them here once serves every refinement pass.
// The transpose is a counting sort over the cover lists: two O(pairs)
// passes, no per-sensor slice headers.
//
//mdglint:allow-alloc(refine scratch is built once per Plan and reused across all passes)
func newRefineScratch(inst *cover.Instance) *refineScratch {
	rs := &refineScratch{
		counts: make([]int, inst.Universe),
		covOff: make([]int32, inst.Universe+1),
	}
	total := 0
	for c := 0; c < inst.NumCandidates(); c++ {
		for _, s := range inst.Cover(c) {
			rs.covOff[s+1]++
		}
		total += len(inst.Cover(c))
	}
	for s := 0; s < inst.Universe; s++ {
		rs.covOff[s+1] += rs.covOff[s]
	}
	rs.covIdx = make([]int32, total)
	fill := make([]int32, inst.Universe)
	// Ascending candidate order per sensor falls out of the ascending
	// outer loop — the same order the per-sensor append lists had.
	for c := 0; c < inst.NumCandidates(); c++ {
		for _, s := range inst.Cover(c) {
			rs.covIdx[rs.covOff[s]+fill[s]] = int32(c)
			fill[s]++
		}
	}
	return rs
}

// candidateIndex returns the spatial index over the instance's
// candidates, building it on first use.
//
//mdglint:allow-alloc(the candidate index is built at most once per Plan and reused across all passes)
func (rs *refineScratch) candidateIndex(inst *cover.Instance) *geom.GridIndex {
	if rs.cands == nil {
		rs.cands = geom.NewGridIndexAuto(inst.Candidates, 0)
	}
	return rs.cands
}

// coverersOf returns the candidates covering sensor s, ascending.
func (rs *refineScratch) coverersOf(s int32) []int32 {
	return rs.covIdx[rs.covOff[s]:rs.covOff[s+1]]
}

// subsetOfSorted reports whether every element of a (ascending) is also
// in b (ascending).
func subsetOfSorted(a, b []int32) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j >= len(b) || b[j] != v {
			return false
		}
		j++
	}
	return true
}

// ensureTour grows the proxy-tour buffers to hold k stops.
//
//mdglint:allow-alloc(tour-buffer growth is amortized; later passes reuse the retained arrays)
func (rs *refineScratch) ensureTour(k int) {
	if cap(rs.pts) < k+1 {
		rs.pts = make([]geom.Point, 0, k+1)
		rs.prev = make([]geom.Point, k)
		rs.next = make([]geom.Point, k)
	}
	rs.pts = rs.pts[:0]
	rs.prev = rs.prev[:k]
	rs.next = rs.next[:k]
}

// resetCounts recomputes the coverage counts for the current selection.
func (rs *refineScratch) resetCounts(inst *cover.Instance, chosen []int) {
	for i := range rs.counts {
		rs.counts[i] = 0
	}
	for _, c := range chosen {
		for _, s := range inst.Cover(c) {
			rs.counts[s]++
		}
	}
}

// dropRedundant removes chosen stops whose covered sensors are all covered
// by the other chosen stops. Fewer stops can only shorten the tour. Stops
// are considered in selection order. Returns whether anything was dropped.
//
// A coverage-count cache makes this a single O(k·cover) pass: stop c is
// redundant exactly when every sensor it covers has coverage count >= 2,
// and removals only decrement counts, so a stop that survives its check
// can never become redundant later. That monotonicity makes the
// left-to-right pass with live counts equivalent to the old
// remove-first-and-restart fixed point (TestDropRedundantMatchesOracle
// pins it), without rebuilding an O(k) bitset union per stop per round.
func dropRedundant(inst *cover.Instance, chosen *[]int, rs *refineScratch) bool {
	cur := *chosen
	rs.resetCounts(inst, cur)
	counts := rs.counts
	redundant := func(c int) bool {
		for _, s := range inst.Cover(c) {
			if counts[s] < 2 {
				return false
			}
		}
		return true
	}
	out := cur[:0]
	dropped := false
	for _, c := range cur {
		if redundant(c) {
			for _, s := range inst.Cover(c) {
				counts[s]--
			}
			dropped = true
			continue
		}
		//mdglint:allow-alloc(out aliases cur[:0]; the append writes into the selection's own storage)
		out = append(out, c)
	}
	*chosen = out
	return dropped
}

// relocateStops tries to replace each chosen stop with an alternative
// candidate that still covers the stop's critical sensors (those no other
// chosen stop covers) while sitting closer to the tour through the
// remaining stops. The proxy objective is the detour relative to the
// stop's two current tour neighbours. Returns whether any stop moved.
func relocateStops(p *Problem, inst *cover.Instance, chosen []int, rs *refineScratch) bool {
	if len(chosen) == 0 {
		return false
	}
	// Current tour order over sink + stops to know each stop's neighbours.
	rs.ensureTour(len(chosen))
	pts := rs.pts
	//mdglint:allow-alloc(append stays within the capacity ensureTour reserved)
	pts = append(pts, p.Net.Sink)
	for _, c := range chosen {
		//mdglint:allow-alloc(append stays within the capacity ensureTour reserved)
		pts = append(pts, inst.Candidates[c])
	}
	tour := tsp.Solve(pts, tsp.Options{Construction: tsp.ConstructGreedy, TwoOpt: true, Pool: p.Pool})
	tour.RotateTo(0)
	prev, next := rs.prev, rs.next
	for ti, idx := range tour {
		if idx == 0 {
			continue
		}
		prev[idx-1] = pts[tour[(ti-1+len(tour))%len(tour)]]
		next[idx-1] = pts[tour[(ti+1)%len(tour)]]
	}

	// counts[s] = number of chosen stops covering sensor s, maintained
	// across relocations so each stop's critical set (sensors only it
	// covers, i.e. count exactly 1) reflects every earlier move — the
	// same set the old per-stop O(k) bitset union produced.
	rs.resetCounts(inst, chosen)
	counts := rs.counts
	moved := false
	for i := range chosen {
		// The critical set inherits ascending order from the cover list,
		// so subset checks against other covers are sorted merges.
		critical := rs.critical[:0]
		for _, s := range inst.Cover(chosen[i]) {
			if counts[s] == 1 {
				//mdglint:allow-alloc(append reuses critical-set capacity retained in the scratch)
				critical = append(critical, s)
			}
		}
		rs.critical = critical
		cur := inst.Candidates[chosen[i]]
		bestCost := prev[i].Dist(cur) + cur.Dist(next[i])
		bestCand := chosen[i]
		consider := func(c int) {
			rs.relocateEvals++
			if c == chosen[i] {
				return
			}
			if !subsetOfSorted(critical, inst.Cover(c)) {
				return
			}
			alt := inst.Candidates[c]
			if cost := prev[i].Dist(alt) + alt.Dist(next[i]); cost < bestCost-1e-9 {
				bestCost = cost
				bestCand = c
			}
		}
		if len(critical) > 0 {
			// Any replacement must cover every critical sensor, so scanning
			// the coverers of the first one — ascending, like the full scan
			// — preserves tie-breaks while touching a handful of candidates.
			for _, c := range rs.coverersOf(critical[0]) {
				consider(int(c))
			}
		} else {
			// No critical sensors (the stop is redundant): every candidate
			// qualifies. A candidate c can only win with
			// prev.Dist(c)+c.Dist(next) < bestCost, and bestCost only
			// shrinks; by the triangle inequality that puts c within
			// bestCost/2 of the prev–next midpoint. Scanning the hits of
			// that disk (plus slack for rounding) in ascending order
			// therefore makes the same moves, tie-breaks included, as a
			// scan of every candidate.
			mid := geom.Mid(prev[i], next[i])
			hits := rs.candidateIndex(inst).Within(mid, bestCost/2+1e-6, rs.hits[:0])
			slices.Sort(hits)
			for _, c := range hits {
				consider(c)
			}
			rs.hits = hits
		}
		if bestCand != chosen[i] {
			for _, s := range inst.Cover(chosen[i]) {
				counts[s]--
			}
			for _, s := range inst.Cover(bestCand) {
				counts[s]++
			}
			chosen[i] = bestCand
			moved = true
		}
	}
	return moved
}

// PlanVisitAll returns the "d = 0" extreme: the collector visits every
// sensor position (single hop at zero distance). The paper's introduction
// uses it to motivate covering stops; the experiments use it as the
// maximum-energy-saving baseline. The tour is built on p.Pool.
func PlanVisitAll(p *Problem, opts tsp.Options) (*Solution, error) {
	sensors := p.Net.Positions()
	if len(sensors) == 0 {
		return nil, fmt.Errorf("shdgp: empty network")
	}
	inst := cover.NewInstancePool(sensors, sensors, p.Net.Range, p.Pool)
	chosen := make([]int, len(inst.Candidates))
	for i := range chosen {
		chosen[i] = i
	}
	opts.Pool = p.Pool
	// Assign every sensor to its own position, not the nearest stop: with
	// all sensors as stops the nearest stop IS its own position.
	sol := buildSolution(p, inst, chosen, opts, "visit-all-tsp")
	return sol, nil
}
