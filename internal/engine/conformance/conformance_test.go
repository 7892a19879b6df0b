package conformance_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mobicol/internal/check"
	"mobicol/internal/collector"
	"mobicol/internal/engine"
	"mobicol/internal/engine/conformance"
	"mobicol/internal/geom"
	"mobicol/internal/par"
	"mobicol/internal/wsn"
)

// configFor sizes the suite per planner: the exact solver needs tiny
// instances to stay inside its candidate/stop limits, and visit-all's
// per-sensor TSP gets a sensor cap to keep the sweep fast.
func configFor(name string) conformance.Config {
	switch name {
	case "exact":
		return conformance.Config{Seed: 7, Scenarios: 3, MaxSensors: 12}
	case "visit-all":
		return conformance.Config{Seed: 5, Scenarios: 6, MaxSensors: 40}
	default:
		return conformance.Config{Seed: 3, Scenarios: 6}
	}
}

// TestAllRegisteredPlanners is the headline gate: every planner in the
// registry — including any added after this test was written — must pass
// the full conformance suite.
func TestAllRegisteredPlanners(t *testing.T) {
	names := engine.Names()
	if len(names) == 0 {
		t.Fatal("no planners registered")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			p, ok := engine.Lookup(name)
			if !ok {
				t.Fatalf("planner %q vanished from the registry", name)
			}
			conformance.Run(t, p, configFor(name))
		})
	}
}

// brokenPlanner is a deliberately non-conformant fixture: it strands
// every sensor, lies about its stats, ignores context cancellation,
// emits no progress, and varies its output call to call.
type brokenPlanner struct {
	calls int
}

func (b *brokenPlanner) Name() string { return "broken-fixture" }

func (b *brokenPlanner) Plan(ctx context.Context, sc engine.Scenario, opts engine.Options) (*engine.Plan, engine.Stats, error) {
	b.calls++ // nondeterminism: the stop drifts with every call
	tour := &collector.TourPlan{
		Sink:     sc.Net.Sink,
		Stops:    []geom.Point{sc.Net.Sink.Add(geom.Pt(float64(b.calls), 0))},
		UploadAt: make([]int, sc.Net.N()),
	}
	for i := range tour.UploadAt {
		tour.UploadAt[i] = -1 // coverage violation: every sensor stranded
	}
	return &engine.Plan{Tour: tour, Algorithm: "broken"},
		engine.Stats{Length: tour.Length() + 1, Stops: 99}, nil
}

// recordingTB captures suite failures instead of failing the test, so
// the negative test can assert on them.
type recordingTB struct {
	failures []string
}

func (r *recordingTB) Helper() {}

func (r *recordingTB) Errorf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// TestBrokenPlannerFailsSuite is the suite's negative control: a fixture
// violating every contract clause must be flagged on every one of them.
// A conformance harness that passes this planner verifies nothing.
func TestBrokenPlannerFailsSuite(t *testing.T) {
	bp := &brokenPlanner{}
	engine.Register(bp.Name(), bp)
	defer engine.Unregister(bp.Name())

	rec := &recordingTB{}
	conformance.Run(rec, bp, conformance.Config{Seed: 3, Scenarios: 2})
	if len(rec.failures) == 0 {
		t.Fatal("conformance suite passed a deliberately broken planner")
	}
	all := strings.Join(rec.failures, "\n")
	for _, want := range []string{
		"oracle",                // stranded sensors fail the coverage invariant
		"stats",                 // recorded length and stop count both lie
		"determinism",           // output drifts call to call
		"want context.Canceled", // canceled context ignored
		"progress",              // no events emitted
	} {
		if !strings.Contains(all, want) {
			t.Errorf("suite missed the %q violation; failures:\n%s", want, all)
		}
	}
}

// TestSuiteReportsEmptyScenarioFilter pins the guard against a config
// whose sensor cap filters out every generated deployment.
func TestSuiteReportsEmptyScenarioFilter(t *testing.T) {
	p, ok := engine.Lookup("shdg")
	if !ok {
		t.Fatal("shdg not registered")
	}
	errs := conformance.Suite(p, conformance.Config{Seed: 3, Scenarios: 2, MaxSensors: 1})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "no scenarios") {
		t.Fatalf("want a single no-scenarios error, got %v", errs)
	}
}

// TestCancelUnderLoad is the cancellation smoke the CI job runs with
// -race: start a 10k-sensor plan, cancel mid-flight at 50 ms, and demand
// a clean context.Canceled return with no goroutines left behind.
func TestCancelUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-sensor plan; skipped in -short")
	}
	nw := wsn.MustDeploy(wsn.Config{N: 10000, FieldSide: 2000, Range: 30, Seed: 1})
	p, ok := engine.Lookup("shdg")
	if !ok {
		t.Fatal("shdg not registered")
	}
	check.NoLeakedGoroutines(t, func() {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(50*time.Millisecond, cancel)
		defer timer.Stop()
		defer cancel()
		pl, _, err := p.Plan(ctx, engine.Scenario{Net: nw}, engine.Options{Pool: par.Workers(8)})
		if err == nil {
			// The planner beat the timer; a fast machine makes this a
			// no-op run, not a failure.
			t.Logf("n=10k plan finished before the 50ms cancel landed")
			if pl == nil {
				t.Error("nil plan with nil error")
			}
			return
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("want context.Canceled, got %v", err)
		}
		if pl != nil {
			t.Error("non-nil plan alongside cancellation")
		}
	})
}

// TestExtremeRangesEveryPlanner plans a small field at ranges far outside
// the grid's scale: 1e300 m, where a range query's cell span overflows
// int, and 1e-9 m, whose range-sized cell table would not fit in memory.
// Every registered planner must return a plan that passes the oracle, or
// an error. cla is left out at 1e-9 m: it lays one line per 2r of field
// and has no line cap yet.
func TestExtremeRangesEveryPlanner(t *testing.T) {
	for _, r := range []float64{1e300, 1e-9} {
		nw := wsn.MustDeploy(wsn.Config{N: 40, FieldSide: 200, Range: r, Seed: 11})
		for _, name := range engine.Names() {
			if name == "cla" && r < 1 {
				continue
			}
			p, _ := engine.Lookup(name)
			pl, _, err := p.Plan(context.Background(), engine.Scenario{Net: nw}, engine.Options{})
			if err != nil {
				t.Logf("%s at range %g: %v", name, r, err)
				continue
			}
			if err := check.Plan(nw, pl.Tour, check.Options{UploadDist: pl.UploadDist}); err != nil {
				t.Errorf("%s at range %g: oracle: %v", name, r, err)
			}
		}
	}
}
