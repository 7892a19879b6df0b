package check

import (
	"math"
	"strings"
	"testing"

	"mobicol/internal/collector"
	"mobicol/internal/energy"
	"mobicol/internal/geom"
	"mobicol/internal/wsn"
)

// testNet is a 3-sensor deployment with range 10 on a 100×100 field.
func testNet() *wsn.Network {
	pts := []geom.Point{geom.Pt(10, 10), geom.Pt(14, 10), geom.Pt(60, 60)}
	return wsn.New(pts, geom.Pt(0, 0), 10, geom.Square(100))
}

// validPlan serves sensors 0 and 1 from one stop and sensor 2 from another.
func validPlan(nw *wsn.Network) *collector.TourPlan {
	return &collector.TourPlan{
		Sink:     nw.Sink,
		Stops:    []geom.Point{geom.Pt(12, 10), geom.Pt(60, 62)},
		UploadAt: []int{0, 0, 1},
	}
}

func TestPlanAcceptsValid(t *testing.T) {
	nw := testNet()
	if err := Plan(nw, validPlan(nw), Options{}); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

// TestPlanRejectsInvalid is the acceptance-criteria table: each case is a
// distinct hand-built invalid plan the oracle must reject, identified by
// the invariant named in the error.
func TestPlanRejectsInvalid(t *testing.T) {
	nw := testNet()
	cases := []struct {
		name    string
		mutate  func(tp *collector.TourPlan)
		wantSub string
	}{
		{
			name:    "assignment-arity",
			mutate:  func(tp *collector.TourPlan) { tp.UploadAt = tp.UploadAt[:2] },
			wantSub: "assignment-arity",
		},
		{
			name:    "stop-index-high",
			mutate:  func(tp *collector.TourPlan) { tp.UploadAt[1] = 7 },
			wantSub: "stop-index",
		},
		{
			name:    "stop-index-low",
			mutate:  func(tp *collector.TourPlan) { tp.UploadAt[1] = -3 },
			wantSub: "stop-index",
		},
		{
			name:    "coverage-hole",
			mutate:  func(tp *collector.TourPlan) { tp.UploadAt[2] = -1 },
			wantSub: "coverage",
		},
		{
			name:    "single-hop-out-of-range",
			mutate:  func(tp *collector.TourPlan) { tp.Stops[1] = geom.Pt(95, 95) },
			wantSub: "single-hop",
		},
		{
			name:    "sink-anchor",
			mutate:  func(tp *collector.TourPlan) { tp.Sink = geom.Pt(50, 50) },
			wantSub: "sink-anchor",
		},
		{
			name:    "non-finite-stop",
			mutate:  func(tp *collector.TourPlan) { tp.Stops[0] = geom.Pt(math.NaN(), 10) },
			wantSub: "finite-geometry",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := validPlan(nw)
			tc.mutate(tp)
			err := Plan(nw, tp, Options{})
			if err == nil {
				t.Fatalf("invalid plan accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name invariant %q", err, tc.wantSub)
			}
		})
	}
}

func TestPlanNilInputs(t *testing.T) {
	nw := testNet()
	if err := Plan(nil, validPlan(nw), Options{}); err == nil {
		t.Fatal("nil network accepted")
	}
	if err := Plan(nw, nil, Options{}); err == nil {
		t.Fatal("nil plan accepted")
	}
}

func TestPlanAllowUnserved(t *testing.T) {
	nw := testNet()
	tp := validPlan(nw)
	tp.UploadAt[2] = -1
	if err := Plan(nw, tp, Options{AllowUnserved: true}); err != nil {
		t.Fatalf("stranded sensor rejected despite AllowUnserved: %v", err)
	}
}

func TestPlanUploadDistOverride(t *testing.T) {
	nw := testNet()
	tp := validPlan(nw)
	// Move sensor 2's stop out of range; the override models CLA semantics
	// where the effective upload distance differs from the recorded stop.
	tp.Stops[1] = geom.Pt(95, 95)
	opts := Options{UploadDist: func(i int) float64 {
		if i == 2 {
			return nw.Range / 2
		}
		return nw.Nodes[i].Pos.Dist(tp.Stops[tp.UploadAt[i]])
	}}
	if err := Plan(nw, tp, opts); err != nil {
		t.Fatalf("UploadDist override not honoured: %v", err)
	}
}

func TestPlanReportsAllViolationsBounded(t *testing.T) {
	nw := testNet()
	tp := validPlan(nw)
	tp.UploadAt = []int{-1, -1, -1}
	err := Plan(nw, tp, Options{})
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "3 invariant(s)") {
		t.Fatalf("violation count missing from %q", err)
	}
}

func TestRecordedLength(t *testing.T) {
	nw := testNet()
	tp := validPlan(nw)
	if err := RecordedLength(tp, tp.Length()); err != nil {
		t.Fatalf("true length rejected: %v", err)
	}
	if err := RecordedLength(tp, tp.Length()*1.5); err == nil {
		t.Fatal("inflated length accepted")
	}
}

func TestLedgerConservation(t *testing.T) {
	led := energy.NewLedger(4, energy.DefaultModel())
	if err := Ledger(led, 0); err != nil {
		t.Fatalf("fresh ledger rejected: %v", err)
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < led.N(); i++ {
			led.ChargeTx(i, 20)
			led.ChargeRx(i)
		}
		led.EndRound()
	}
	if err := Ledger(led, 5); err != nil {
		t.Fatalf("honest ledger rejected: %v", err)
	}
}

func TestLedgerDetectsTampering(t *testing.T) {
	mk := func() *energy.Ledger {
		led := energy.NewLedger(3, energy.DefaultModel())
		for i := 0; i < led.N(); i++ {
			led.ChargeTx(i, 30)
		}
		led.EndRound()
		return led
	}
	t.Run("conservation", func(t *testing.T) {
		led := mk()
		led.Residual[0] /= 2 // energy vanished without being spent
		if err := Ledger(led, 1); err == nil || !strings.Contains(err.Error(), "conservation") {
			t.Fatalf("want conservation violation, got %v", err)
		}
	})
	t.Run("bounds-negative", func(t *testing.T) {
		led := mk()
		led.Residual[1] = -0.25
		if err := Ledger(led, 1); err == nil || !strings.Contains(err.Error(), "bounds") {
			t.Fatalf("want bounds violation, got %v", err)
		}
	})
	t.Run("bounds-overcharged", func(t *testing.T) {
		led := mk()
		led.Residual[2] = led.Model.InitialJ * 2
		if err := Ledger(led, 1); err == nil || !strings.Contains(err.Error(), "bounds") {
			t.Fatalf("want bounds violation, got %v", err)
		}
	})
	t.Run("rounds", func(t *testing.T) {
		led := mk()
		if err := Ledger(led, 9); err == nil || !strings.Contains(err.Error(), "rounds") {
			t.Fatalf("want rounds violation, got %v", err)
		}
	})
	t.Run("rounds-skipped-when-negative", func(t *testing.T) {
		led := mk()
		if err := Ledger(led, -1); err != nil {
			t.Fatalf("wantRounds<0 should skip the round check: %v", err)
		}
	})
}

func TestLedgerDeathBookkeeping(t *testing.T) {
	m := energy.DefaultModel()
	m.InitialJ = 1e-4 // tiny battery: a single long transmission kills
	led := energy.NewLedger(2, m)
	led.ChargeTx(0, 500)
	led.EndRound()
	if led.Alive(0) {
		t.Fatal("node 0 should be dead")
	}
	if err := Ledger(led, 1); err != nil {
		t.Fatalf("honest death rejected: %v", err)
	}
	// A dead node must have spent exactly its battery, no more.
	if got := led.SpentJ(0); math.Abs(float64(got-m.InitialJ)) > 1e-12 {
		t.Fatalf("dead node spent %v, battery was %v", got, m.InitialJ)
	}
	led.Residual[0] = 0.5 * m.InitialJ // zombie: dead but holding charge
	if err := Ledger(led, 1); err == nil || !strings.Contains(err.Error(), "death") {
		t.Fatalf("want death violation, got %v", err)
	}
}

func TestScenariosDeterministic(t *testing.T) {
	a := Scenarios(99, 12)
	b := Scenarios(99, 12)
	if len(a) != 12 || len(b) != 12 {
		t.Fatalf("want 12 scenarios, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("scenario %d: name %q vs %q", i, a[i].Name, b[i].Name)
		}
		if a[i].Net.N() != b[i].Net.N() {
			t.Fatalf("scenario %d: n %d vs %d", i, a[i].Net.N(), b[i].Net.N())
		}
		for j := 0; j < a[i].Net.N(); j++ {
			if !a[i].Net.Nodes[j].Pos.Eq(b[i].Net.Nodes[j].Pos) {
				t.Fatalf("scenario %d sensor %d: %v vs %v",
					i, j, a[i].Net.Nodes[j].Pos, b[i].Net.Nodes[j].Pos)
			}
		}
		if want := Layout(i % int(numLayouts)); a[i].Layout != want {
			t.Fatalf("scenario %d: layout %v, want %v", i, a[i].Layout, want)
		}
		for j := 0; j < a[i].Net.N(); j++ {
			if p := a[i].Net.Nodes[j].Pos; p != a[i].Net.Field.Clamp(p) {
				t.Fatalf("scenario %d sensor %d outside field", i, j)
			}
		}
	}
}

func TestScenariosPrefixStable(t *testing.T) {
	// Each scenario draws from its own split stream, so extending the
	// count must not perturb earlier scenarios.
	short := Scenarios(7, 4)
	long := Scenarios(7, 9)
	for i := range short {
		if short[i].Name != long[i].Name {
			t.Fatalf("scenario %d changed when count grew: %q vs %q", i, short[i].Name, long[i].Name)
		}
	}
}

func TestMetamorphicHelpers(t *testing.T) {
	nw := testNet()
	d := geom.Pt(5, -3)
	tr := Translate(nw, d)
	if !tr.Sink.Eq(nw.Sink.Add(d)) {
		t.Fatalf("translated sink %v", tr.Sink)
	}
	if !tr.Nodes[2].Pos.Eq(nw.Nodes[2].Pos.Add(d)) {
		t.Fatalf("translated sensor %v", tr.Nodes[2].Pos)
	}
	sc := Scale(nw, 2)
	if sc.Range != 2*nw.Range {
		t.Fatalf("scaled range %v", sc.Range)
	}
	if !sc.Nodes[1].Pos.Eq(nw.Nodes[1].Pos.Scale(2)) {
		t.Fatalf("scaled sensor %v", sc.Nodes[1].Pos)
	}
	ws := WithSensor(nw, geom.Pt(1, 2))
	if ws.N() != nw.N()+1 {
		t.Fatalf("WithSensor n=%d", ws.N())
	}
	if !ws.Nodes[ws.N()-1].Pos.Eq(geom.Pt(1, 2)) {
		t.Fatalf("appended sensor at %v", ws.Nodes[ws.N()-1].Pos)
	}
	if nw.N() != 3 {
		t.Fatalf("helpers mutated the original network: n=%d", nw.N())
	}
}

func TestLayoutString(t *testing.T) {
	names := map[Layout]string{
		LayoutUniform:    "uniform",
		LayoutClustered:  "clustered",
		LayoutCollinear:  "collinear",
		LayoutCoincident: "coincident",
		Layout(42):       "Layout(42)",
	}
	for l, want := range names {
		if got := l.String(); got != want {
			t.Fatalf("Layout(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}
