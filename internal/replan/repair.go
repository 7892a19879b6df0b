package replan

import (
	"fmt"

	"mobicol/internal/collector"
	"mobicol/internal/cover"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/par"
	"mobicol/internal/tsp"
	"mobicol/internal/wsn"
)

// repairNeighborK matches the cold planner's TSP neighbour-list width so
// the seeded passes see the same candidate moves a full pass would.
const repairNeighborK = 12

// Options tunes a repair.
type Options struct {
	// Pool bounds the parallelism of the carry and rehome phases. Any
	// pool size produces a byte-identical plan.
	Pool par.Pool
	// Obs, when non-nil, receives per-phase spans (carry, rehome,
	// recover, splice, improve). Nil disables tracing.
	Obs *obs.Trace
	// Step, when non-nil, is consulted at every phase boundary (carry →
	// rehome → recover → splice/improve); a non-nil return aborts the
	// repair with that error. The engine seam wires context cancellation
	// here. A Step that always returns nil never changes the output.
	Step func() error
}

// step consults the phase-boundary hook, if any.
func (o Options) step() error {
	if o.Step == nil {
		return nil
	}
	return o.Step()
}

// Stats summarises what a repair touched; everything it does not mention
// was reused from the previous plan untouched.
type Stats struct {
	Kept      int // sensors that kept their carried stop
	Rehomed   int // dirty sensors re-attached to an existing stop
	Recovered int // dirty sensors needing freshly planned coverage
	NewStops  int // stops added by the recover phase
	Ejected   int // previous stops that lost every sensor
	Moves     int // seeded 2-opt/Or-opt improvements applied
}

// Dirty returns how many sensors lost their carried assignment.
func (s Stats) Dirty() int { return s.Rehomed + s.Recovered }

// Repair warm-starts a plan for nw from a previous plan. carried[i] is
// the stop (an index into prev.Stops) sensor i of nw uploaded at before
// the scenario changed, or -1 for sensors with no previous assignment;
// Delta.Apply and CarryPositional both produce it.
//
// The repair is local: assignments still within range are kept verbatim,
// dirty sensors are rehomed onto the nearest existing stop through a
// grid over the stop set, and only the sensors no stop can serve get new
// stops (a greedy disk cover over their own sites, spliced into the
// previous visit order by cheapest insertion). A previous stop is
// ejected only when it served sensors before and serves none now, so
// repairing against an unchanged scenario returns a bit-identical plan.
// Bounded 2-opt/Or-opt passes run seeded with the spliced and ejected
// segments; an empty touch set skips them entirely.
//
//mdglint:hotpath
//mdglint:allow-alloc(repair runs once per scenario change and owns the plan it returns)
func Repair(nw *wsn.Network, prev *collector.TourPlan, carried []int, opts Options) (*collector.TourPlan, Stats, error) {
	root := opts.Obs.Start("replan")
	defer root.End()

	var st Stats
	n := nw.N()
	m := len(prev.Stops)
	if !prev.Sink.Eq(nw.Sink) {
		return nil, st, fmt.Errorf("replan: previous plan anchored at %v, network sink is %v", prev.Sink, nw.Sink)
	}
	if len(carried) != n {
		return nil, st, fmt.Errorf("replan: %d carried assignments for %d sensors", len(carried), n)
	}
	for i, s := range carried {
		if s < -1 || s >= m {
			return nil, st, fmt.Errorf("replan: sensor %d carried to stop %d of %d", i, s, m)
		}
	}

	sensors := nw.Positions()
	bound := nw.Range*nw.Range + geom.Eps

	// Phase 1 — carry: keep every assignment whose stop is still within
	// range of the (possibly moved) sensor. Pure per-sensor work, so the
	// pool fan-out is deterministic.
	spCarry := root.Child("carry")
	assign := par.Map(opts.Pool, n, func(i int) int {
		if s := carried[i]; s >= 0 && sensors[i].Dist2(prev.Stops[s]) <= bound {
			return s
		}
		return -1
	})
	dirty := make([]int, 0, 16)
	for i, s := range assign {
		if s < 0 {
			dirty = append(dirty, i)
		} else {
			st.Kept++
		}
	}
	spCarry.SetInt("kept", int64(st.Kept))
	spCarry.SetInt("dirty", int64(len(dirty)))
	spCarry.End()
	if err := opts.step(); err != nil {
		return nil, st, err
	}

	// Phase 2 — rehome: a dirty sensor that drifted into range of some
	// other existing stop needs no new stop, just a new assignment.
	spRehome := root.Child("rehome")
	if len(dirty) > 0 && m > 0 {
		stopIdx := geom.NewGridIndexFor(prev.Stops, nw.Range)
		rehomed := par.Map(opts.Pool, len(dirty), func(k int) int {
			s, _ := stopIdx.NearestWithin(sensors[dirty[k]], nw.Range)
			return s
		})
		left := dirty[:0]
		for k, s := range rehomed {
			if s >= 0 {
				assign[dirty[k]] = s
				st.Rehomed++
			} else {
				left = append(left, dirty[k])
			}
		}
		dirty = left
	}
	st.Recovered = len(dirty)
	spRehome.SetInt("rehomed", int64(st.Rehomed))
	spRehome.End()
	if err := opts.step(); err != nil {
		return nil, st, err
	}

	// Phase 3 — recover: greedily cover the sensors no existing stop can
	// serve, using their own sites as candidates (every dirty sensor
	// covers itself, so the instance is always feasible).
	spRecover := root.Child("recover")
	var newStops []geom.Point
	if len(dirty) > 0 {
		dirtyPts := make([]geom.Point, len(dirty))
		for k, i := range dirty {
			dirtyPts[k] = sensors[i]
		}
		inst := cover.NewInstancePool(dirtyPts, dirtyPts, nw.Range, opts.Pool)
		chosen, err := inst.Greedy(nw.Sink)
		if err != nil {
			return nil, st, fmt.Errorf("replan: recover phase: %w", err)
		}
		newStops = make([]geom.Point, len(chosen))
		for k, c := range chosen {
			newStops[k] = inst.Candidates[c]
		}
		for k, a := range inst.Assign(dirtyPts, chosen) {
			assign[dirty[k]] = m + a
		}
	}
	st.NewStops = len(newStops)
	spRecover.SetInt("new_stops", int64(st.NewStops))
	spRecover.End()
	if err := opts.step(); err != nil {
		return nil, st, err
	}

	// Phase 4 — eject: drop previous stops that served sensors before and
	// serve none now. Previous load comes from the plan itself (not from
	// carried, which has already lost removed sensors); stops that were
	// load-free in the previous plan stay, preserving the Δ=∅ identity
	// even for plans carrying idle stops.
	loadPrev := make([]int, m)
	for _, s := range prev.UploadAt {
		if s >= 0 && s < m {
			loadPrev[s]++
		}
	}
	loadNew := make([]int, m+len(newStops))
	for _, s := range assign {
		loadNew[s]++
	}
	eject := make([]bool, m)
	for j := 0; j < m; j++ {
		if loadNew[j] == 0 && loadPrev[j] > 0 {
			eject[j] = true
			st.Ejected++
		}
	}

	// Phase 5 — splice: previous visit order minus ejected stops, new
	// stops inserted where they detour least. touched collects the stop
	// ids whose tour neighbourhood changed; they seed the bounded local
	// search below.
	spSplice := root.Child("splice")
	allStops := append(append(make([]geom.Point, 0, m+len(newStops)), prev.Stops...), newStops...)
	order := make([]int, 0, len(allStops))
	touched := make(map[int]bool, 2*(st.Ejected+st.NewStops))
	for j := 0; j < m; j++ {
		if !eject[j] {
			order = append(order, j)
			continue
		}
		// The survivors either side of an ejection inherit a new tour edge.
		for p := j - 1; p >= 0; p-- {
			if !eject[p] {
				touched[p] = true
				break
			}
		}
		for p := j + 1; p < m; p++ {
			if !eject[p] {
				touched[p] = true
				break
			}
		}
	}
	for g := m; g < m+len(newStops); g++ {
		pos := cheapestSlot(nw.Sink, allStops, order, allStops[g])
		if pos > 0 {
			touched[order[pos-1]] = true
		}
		if pos < len(order) {
			touched[order[pos]] = true
		}
		order = append(order, 0)
		copy(order[pos+1:], order[pos:])
		order[pos] = g
		touched[g] = true
	}
	spSplice.SetInt("ejected", int64(st.Ejected))
	spSplice.End()

	// Phase 6 — improve: seeded 2-opt/Or-opt around the touched segments.
	// Tour points: index 0 is the sink, 1..k the stops in visit order.
	spImprove := root.Child("improve")
	pts := make([]geom.Point, 0, len(order)+1)
	pts = append(pts, nw.Sink)
	for _, g := range order {
		pts = append(pts, allStops[g])
	}
	tour := make(tsp.Tour, len(pts))
	for i := range tour {
		tour[i] = i
	}
	if len(touched) > 0 && len(pts) >= 4 {
		seeds := make([]int, 0, 3*len(touched))
		for i, g := range order {
			if touched[g] {
				// Seed the stop and its current cycle neighbours (pts
				// index i+1; index 0 is the sink and seeds naturally).
				seeds = append(seeds, i, i+1, (i+2)%len(pts))
			}
		}
		neigh := tsp.NeighborLists(pts, repairNeighborK, opts.Pool)
		var sc tsp.Scratch
		st.Moves = sc.TwoOptSeeded(pts, tour, neigh, seeds)
		st.Moves += sc.OrOptSeeded(pts, tour, neigh, seeds)
		tour.RotateTo(0)
	}
	spImprove.SetInt("moves", int64(st.Moves))
	spImprove.End()

	// Reassemble: visit order from the improved tour, assignment remapped
	// from global stop ids to visit positions.
	finalStops := make([]geom.Point, 0, len(order))
	finalPos := make([]int, len(allStops))
	for i := range finalPos {
		finalPos[i] = -1
	}
	for _, ti := range tour[1:] {
		finalPos[order[ti-1]] = len(finalStops)
		finalStops = append(finalStops, pts[ti])
	}
	uploadAt := make([]int, n)
	for i, s := range assign {
		uploadAt[i] = finalPos[s]
	}
	root.SetInt("stops", int64(len(finalStops)))
	root.SetInt("dirty", int64(st.Dirty()))
	return &collector.TourPlan{Sink: nw.Sink, Stops: finalStops, UploadAt: uploadAt}, st, nil
}

// RepairDelta applies d to the previous scenario and repairs prev for the
// resulting network: the one-call form the CLI and benchmarks use.
func RepairDelta(prevNet *wsn.Network, prev *collector.TourPlan, d Delta, opts Options) (*wsn.Network, *collector.TourPlan, Stats, error) {
	if len(prev.UploadAt) != prevNet.N() {
		return nil, nil, Stats{}, fmt.Errorf("replan: plan assigns %d sensors, previous network has %d", len(prev.UploadAt), prevNet.N())
	}
	nw, carried, err := d.Apply(prevNet, prev.UploadAt)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	plan, st, err := Repair(nw, prev, carried, opts)
	if err != nil {
		return nil, nil, Stats{}, err
	}
	return nw, plan, st, nil
}

// cheapestSlot returns the insertion position (into order) that grows the
// closed tour sink -> stops[order...] -> sink the least when adding p.
// Position 0 inserts after the sink; ties break toward the earliest slot.
func cheapestSlot(sink geom.Point, stops []geom.Point, order []int, p geom.Point) int {
	best, bestCost := 0, 0.0
	k := len(order)
	for pos := 0; pos <= k; pos++ {
		a := sink
		if pos > 0 {
			a = stops[order[pos-1]]
		}
		b := sink
		if pos < k {
			b = stops[order[pos]]
		}
		cost := a.Dist(p) + p.Dist(b) - a.Dist(b)
		if pos == 0 || cost < bestCost {
			best, bestCost = pos, cost
		}
	}
	return best
}
