package main

import (
	"context"
	"fmt"
	"math"

	"mobicol/internal/check"
	"mobicol/internal/engine"
	"mobicol/internal/obs"
	"mobicol/internal/par"
	"mobicol/internal/replan"
	"mobicol/internal/rng"
	"mobicol/internal/wsn"
)

// rangeM is the transmission range of every workload, the paper's
// evaluation setting.
const rangeM = 30.0

// paperSide is the side of the square field that holds n sensors at the
// paper's density of 100 sensors per 200 m × 200 m.
func paperSide(n int) float64 { return 200 * math.Sqrt(float64(n)/100) }

// call is one planner invocation of a workload's cycle. prepare builds
// the call's scenario from scratch — a fresh network, so no lazily built
// index survives from an earlier call — and runs outside the timed
// region.
type call struct {
	planner string
	// scored marks the calls whose tour lengths make up tour_m: the
	// SHDGP planner's outputs, cold or warm.
	scored  bool
	prepare func() (engine.Scenario, error)
}

// inputs is what one set-up produces: the cycle of calls the timed loop
// repeats, and how long each wsn.Deploy inside the set-up took.
type inputs struct {
	calls    []call
	deployNs []int64
}

// deploy generates one uniform deployment and records the time
// wsn.Deploy took.
func (in *inputs) deploy(n int, side float64, seed uint64) (*wsn.Network, error) {
	w := obs.StartWatch()
	nw, err := wsn.Deploy(wsn.Config{N: n, FieldSide: side, Range: rangeM, Seed: seed})
	in.deployNs = append(in.deployNs, w.ElapsedNs())
	if err != nil {
		return nil, fmt.Errorf("deploy n=%d: %w", n, err)
	}
	return nw, nil
}

// fresh returns a prepare function that copies nw into a new network.
func fresh(nw *wsn.Network) func() (engine.Scenario, error) {
	return func() (engine.Scenario, error) {
		return engine.Scenario{Net: wsn.New(nw.Positions(), nw.Sink, nw.Range, nw.Field)}, nil
	}
}

// workload is one named input family. setup derives every input from
// the seed alone; the planners only ever see the generated scenarios.
type workload struct {
	name  string
	setup func(ctx context.Context, seed uint64, pool par.Pool) (*inputs, error)
}

// workloads lists the benchmark's workloads; README.md records why each
// exists and which layers it stresses. cold-10k runs on request but is
// not in BENCHMARK.json, which keeps to three workloads so that each run
// can measure for 35 s.
func workloads() []workload {
	return []workload{
		{name: "cold-10k", setup: coldSetup(10_000, 6)},
		{name: "cold-100k", setup: coldSetup(100_000, 6)},
		{name: "warm-100k", setup: warmSetup(100_000, 16, 0.01)},
		{name: "paper-e2", setup: paperE2Setup(20)},
	}
}

// lookupWorkload resolves a workload name.
func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// coldSetup builds k independent paper-density deployments of n sensors,
// each planned cold by shdg once per cycle.
func coldSetup(n, k int) func(context.Context, uint64, par.Pool) (*inputs, error) {
	return func(_ context.Context, seed uint64, _ par.Pool) (*inputs, error) {
		src := rng.New(seed)
		in := &inputs{}
		for i := 0; i < k; i++ {
			nw, err := in.deploy(n, paperSide(n), src.Uint64())
			if err != nil {
				return nil, err
			}
			in.calls = append(in.calls, call{planner: "shdg", scored: true, prepare: fresh(nw)})
		}
		return in, nil
	}
}

// warmSetup deploys one base network of n sensors and plans it cold with
// shdg. Each of the k calls then repairs an independent frac-sized
// replan.Perturb delta of that base through the warm planner; the delta
// is generated and applied in prepare, outside the timed region.
func warmSetup(n, k int, frac float64) func(context.Context, uint64, par.Pool) (*inputs, error) {
	return func(ctx context.Context, seed uint64, pool par.Pool) (*inputs, error) {
		src := rng.New(seed)
		in := &inputs{}
		base, err := in.deploy(n, paperSide(n), src.Uint64())
		if err != nil {
			return nil, err
		}
		shdg, err := engine.Select("shdg")
		if err != nil {
			return nil, err
		}
		pl, _, err := shdg.Plan(ctx, engine.Scenario{Net: base}, engine.Options{Pool: pool})
		if err != nil {
			return nil, fmt.Errorf("base plan: %w", err)
		}
		if err := check.Plan(base, pl.Tour, check.Options{}); err != nil {
			return nil, fmt.Errorf("base plan: %w", err)
		}
		// Keep a copy of the base without the index and graph the cold
		// plan built and cached on it: the deltas only read positions, and
		// the cached structures would add their size and fragmentation to
		// every warm call's resident set.
		base = wsn.New(base.Positions(), base.Sink, base.Range, base.Field)
		prev := pl.Tour
		for i := 0; i < k; i++ {
			deltaSeed := src.Uint64()
			in.calls = append(in.calls, call{planner: "warm", scored: true, prepare: func() (engine.Scenario, error) {
				d := replan.Perturb(base, frac, deltaSeed)
				nw, carried, err := d.Apply(base, prev.UploadAt)
				if err != nil {
					return engine.Scenario{}, fmt.Errorf("apply delta: %w", err)
				}
				return engine.Scenario{Net: nw, Prev: prev, Carried: carried}, nil
			}})
		}
		return in, nil
	}
}

// paperE2Setup is the paper's E2 sweep: trials deployments at each
// n ∈ {100…500} on a 200 m field, each planned by shdg, cla and
// visit-all.
func paperE2Setup(trials int) func(context.Context, uint64, par.Pool) (*inputs, error) {
	return func(_ context.Context, seed uint64, _ par.Pool) (*inputs, error) {
		src := rng.New(seed)
		in := &inputs{}
		for _, n := range []int{100, 200, 300, 400, 500} {
			for t := 0; t < trials; t++ {
				nw, err := in.deploy(n, 200, src.Uint64())
				if err != nil {
					return nil, err
				}
				for _, name := range []string{"shdg", "cla", "visit-all"} {
					in.calls = append(in.calls, call{planner: name, scored: name == "shdg", prepare: fresh(nw)})
				}
			}
		}
		return in, nil
	}
}
