package mobicol

// One benchmark per experiment table/figure, as required by the
// reproduction harness: `go test -bench=.` regenerates every table at
// reduced trial counts through exactly the code paths cmd/mdgbench uses at
// paper scale. Each benchmark reports the headline metric of its table as
// a custom unit so shapes are visible straight from the bench output.

import (
	"io"
	"strconv"
	"strings"
	"testing"

	"mobicol/internal/bench"
	"mobicol/internal/cover"
	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/par"
	"mobicol/internal/tsp"
)

func runExperiment(b *testing.B, id string, metricRow, metricCol int, unit string) {
	run, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := bench.QuickConfig()
	var last float64
	for i := 0; i < b.N; i++ {
		tbl, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cell := tbl.Rows[metricRow][metricCol]
		cell = strings.TrimSuffix(strings.TrimSuffix(cell, "%"), "x")
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			b.Fatalf("%s metric cell %q: %v", id, tbl.Rows[metricRow][metricCol], err)
		}
		last = v
	}
	b.ReportMetric(last, unit)
}

// BenchmarkE1OptimalGap regenerates E1 (small-network optimal comparison);
// reports the heuristic's mean tour length on the largest row.
func BenchmarkE1OptimalGap(b *testing.B) { runExperiment(b, "E1", 1, 2, "m_tour") }

// BenchmarkE2TourVsN regenerates E2 (tour length vs N); reports SHDG's
// tour length at the densest point.
func BenchmarkE2TourVsN(b *testing.B) { runExperiment(b, "E2", 1, 1, "m_tour") }

// BenchmarkE3TourVsRange regenerates E3 (tour length vs range).
func BenchmarkE3TourVsRange(b *testing.B) { runExperiment(b, "E3", 2, 1, "m_tour") }

// BenchmarkE4TourVsField regenerates E4 (tour length vs field side).
func BenchmarkE4TourVsField(b *testing.B) { runExperiment(b, "E4", 1, 1, "m_tour") }

// BenchmarkE5MultiCollector regenerates E5 (multi-collector splitting);
// reports the max sub-tour length of the last row.
func BenchmarkE5MultiCollector(b *testing.B) { runExperiment(b, "E5", 3, 3, "m_maxsub") }

// BenchmarkE6Lifetime regenerates E6 (network lifetime); reports the
// mobile scheme's lifetime in rounds at the densest point.
func BenchmarkE6Lifetime(b *testing.B) { runExperiment(b, "E6", 1, 1, "rounds") }

// BenchmarkE7Latency regenerates E7 (collection latency); reports the
// mobile scheme's round time.
func BenchmarkE7Latency(b *testing.B) { runExperiment(b, "E7", 1, 1, "s_round") }

// BenchmarkE8Ablations regenerates E8 (planner ablations); reports the
// default variant's tour length.
func BenchmarkE8Ablations(b *testing.B) { runExperiment(b, "E8", 0, 1, "m_tour") }

// BenchmarkE9BufferCapacity regenerates E9 (buffer-capacity extension);
// reports the tightest capacity's tour length.
func BenchmarkE9BufferCapacity(b *testing.B) { runExperiment(b, "E9", 2, 1, "m_tour") }

// BenchmarkE10DESLatency regenerates E10 (closed-form vs discrete-event
// latency); reports the static sink's DES drain time at the densest point.
func BenchmarkE10DESLatency(b *testing.B) { runExperiment(b, "E10", 1, 2, "s_drain") }

// BenchmarkE11Obstacles regenerates E11 (obstacle-aware planning); reports
// the driven tour length on the obstructed row.
func BenchmarkE11Obstacles(b *testing.B) { runExperiment(b, "E11", 1, 1, "m_driven") }

// BenchmarkE12LossyLinks regenerates E12 (lossy links); reports the mobile
// scheme's lifetime under the mild model.
func BenchmarkE12LossyLinks(b *testing.B) { runExperiment(b, "E12", 1, 1, "rounds") }

// BenchmarkE13Scheduling regenerates E13 (visit scheduling); reports the
// EDF loss fraction at the highest sampled rate.
func BenchmarkE13Scheduling(b *testing.B) { runExperiment(b, "E13", 1, 4, "lossfrac") }

// BenchmarkE14Hetero regenerates E14 (heterogeneous ranges); reports the
// all-weak tour length.
func BenchmarkE14Hetero(b *testing.B) { runExperiment(b, "E14", 2, 1, "m_tour") }

// BenchmarkE15Adaptive regenerates E15 (degradation past first death);
// reports the mobile half-service life.
func BenchmarkE15Adaptive(b *testing.B) { runExperiment(b, "E15", 0, 2, "rounds") }

// BenchmarkPlannerOnly isolates the heuristic planner itself (no sweep):
// one 200-sensor plan per iteration.
func BenchmarkPlannerOnly(b *testing.B) {
	nw := MustDeploy(DeployConfig{N: 200, FieldSide: 200, Range: 30, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanTour(nw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16Rotation regenerates E16 (plan rotation); reports the
// rotated lifetime on the multi-plan row.
func BenchmarkE16Rotation(b *testing.B) { runExperiment(b, "E16", 1, 1, "rounds") }

// warmTSPScratch builds a 200-point instance, converges both local
// searches into the given scratch, and returns the shared state: after
// this, re-running either pass finds no improving move and — with the
// scratch buffers grown — must not allocate.
func warmTSPScratch(s *tsp.Scratch) (pts []geom.Point, tour tsp.Tour, neigh [][]int) {
	nw := MustDeploy(DeployConfig{N: 200, FieldSide: 200, Range: 30, Seed: 1})
	pts = nw.Positions()
	neigh = tsp.NeighborLists(pts, 12, par.Pool{})
	tour = make(tsp.Tour, len(pts))
	for i := range tour {
		tour[i] = i
	}
	for s.TwoOpt(pts, tour, neigh)+s.OrOpt(pts, tour, neigh) > 0 {
	}
	return pts, tour, neigh
}

// BenchmarkTwoOptSteadyState pins the 2-opt pass at allocs/op == 0: on a
// converged tour with a warmed scratch the pass is a pure scan.
func BenchmarkTwoOptSteadyState(b *testing.B) {
	var s tsp.Scratch
	pts, tour, neigh := warmTSPScratch(&s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TwoOpt(pts, tour, neigh)
	}
}

// BenchmarkOrOptSteadyState pins the Or-opt pass at allocs/op == 0 under
// the same converged-tour, warmed-scratch regime.
func BenchmarkOrOptSteadyState(b *testing.B) {
	var s tsp.Scratch
	pts, tour, neigh := warmTSPScratch(&s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OrOpt(pts, tour, neigh)
	}
}

// warmGreedy builds a covering instance and runs one selection so the
// scratch buffers and the instance's lazy feasibility memo are in their
// steady state.
func warmGreedy(tb testing.TB, s *cover.GreedyScratch) (*cover.Instance, geom.Point) {
	tb.Helper()
	nw := MustDeploy(DeployConfig{N: 200, FieldSide: 200, Range: 30, Seed: 1})
	pts := nw.Positions()
	inst := cover.NewInstance(pts, pts, nw.Range)
	if _, err := inst.GreedyInto(nw.Sink, nil, s); err != nil {
		tb.Fatal(err)
	}
	return inst, nw.Sink
}

// BenchmarkGreedySteadyState pins the CELF greedy selection at
// allocs/op == 0 once the scratch has grown to the instance size.
func BenchmarkGreedySteadyState(b *testing.B) {
	var s cover.GreedyScratch
	inst, sink := warmGreedy(b, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.GreedyInto(sink, nil, &s); err != nil {
			b.Fatal(err)
		}
	}
}

// warmSpanTrace builds an enabled trace and runs a few full span round
// trips so the span free list, field slices, line buffer, and registry
// entries are all grown: after this, instrumenting a phase is free.
func warmSpanTrace() *obs.Trace {
	tr := obs.New(io.Discard)
	for i := 0; i < 8; i++ {
		spanRoundTrip(tr)
	}
	return tr
}

// spanRoundTrip is one representative unit of instrumentation work: a
// root span, a child span with typed fields, and metric updates — the
// shape every planner phase uses.
func spanRoundTrip(tr *obs.Trace) {
	root := tr.Start("bench.root")
	child := root.Child("bench.phase")
	child.SetInt("iters", 42)
	child.SetFloat("gain", 1.5)
	child.SetStr("algo", "shdg")
	child.Count("bench.calls", 1)
	child.Observe("bench.gain", 3)
	child.End()
	root.End()
}

// BenchmarkSpanSteadyState pins the obs span enter/exit path at
// allocs/op == 0: with the span pool, line buffer, and registry warmed,
// tracing a phase must not allocate.
func BenchmarkSpanSteadyState(b *testing.B) {
	tr := warmSpanTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spanRoundTrip(tr)
	}
}

// TestHotPathSteadyStateZeroAllocs enforces what the steady-state
// benchmarks report: the scratch-based hot passes must not allocate once
// their buffers have grown. A regression here means a heap allocation
// crept back into a planning inner loop.
func TestHotPathSteadyStateZeroAllocs(t *testing.T) {
	var ts tsp.Scratch
	pts, tour, neigh := warmTSPScratch(&ts)
	if n := testing.AllocsPerRun(20, func() { ts.TwoOpt(pts, tour, neigh) }); n != 0 {
		t.Errorf("Scratch.TwoOpt steady state allocates %.1f objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { ts.OrOpt(pts, tour, neigh) }); n != 0 {
		t.Errorf("Scratch.OrOpt steady state allocates %.1f objects/op, want 0", n)
	}

	var gs cover.GreedyScratch
	inst, sink := warmGreedy(t, &gs)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := inst.GreedyInto(sink, nil, &gs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Instance.GreedyInto steady state allocates %.1f objects/op, want 0", n)
	}

	tr := warmSpanTrace()
	if n := testing.AllocsPerRun(20, func() { spanRoundTrip(tr) }); n != 0 {
		t.Errorf("obs span round trip steady state allocates %.1f objects/op, want 0", n)
	}
}
