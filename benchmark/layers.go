package main

import (
	"bytes"
	"fmt"
	"strconv"

	"mobicol/internal/obs/analyze"
)

// traceLayers attributes the traced calls to layers. data is their
// JSONL trace; traced holds the calls in order, whole cycles of them,
// one root span each. Times are self seconds per planner call, averaged
// over every traced call, so the phase times of a workload add up to its
// mean traced plan time less the engine overhead.
func traceLayers(data []byte, cycle []call, traced []sample) (map[string]metric, error) {
	tr, err := analyze.Parse(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if len(tr.Roots) != len(traced) {
		return nil, fmt.Errorf("trace has %d root spans for %d calls", len(tr.Roots), len(traced))
	}
	// Work counts are divided, not multiplied by a reciprocal, so the
	// per-call values of k whole cycles are bit-identical to one cycle's.
	calls := float64(len(traced))
	m := map[string]metric{}

	selfNs := map[string]int64{}
	for _, ps := range tr.PhaseStats() {
		selfNs[ps.Name] = ps.SelfNs
	}
	// Each phase span's self time is reported under its layer's name.
	for _, l := range []struct{ span, metric string }{
		{"candidates", "cover.candidates_s"},
		{"cover", "cover.greedy_s"},
		{"refine", "shdgp.refine_s"},
		{"tsp", "tsp.self_s"},
		{"construct", "tsp.construct_s"},
		{"twoopt", "tsp.twoopt_s"},
		{"oropt", "tsp.oropt_s"},
		{"carry", "replan.carry_s"},
		{"rehome", "replan.rehome_s"},
		{"recover", "replan.recover_s"},
		{"splice", "replan.splice_s"},
		{"improve", "replan.improve_s"},
	} {
		m[l.metric] = metric{seconds(selfNs[l.span]) / calls, "s"}
	}

	// Roots are sorted by id, which is call order. The engine overhead
	// is the part of each Plan call outside the planner's root span; the
	// CLA baseline has no child phases, so its root self time is the
	// baseline's whole cost.
	var planNs, rootNs, claNs int64
	warmSensors := 0
	for i, root := range tr.Roots {
		planNs += traced[i].planNs
		rootNs += root.DurNs
		switch cycle[traced[i].idx].planner {
		case "cla":
			claNs += root.SelfNs()
		case "warm":
			warmSensors += traced[i].sensors
		}
	}
	m["engine.overhead_s"] = metric{seconds(planNs-rootNs) / calls, "s"}
	m["baselines.cla_s"] = metric{seconds(claNs) / calls, "s"}

	counters := map[string]float64{}
	for _, mt := range tr.Metrics {
		if mt.Type != "counter" {
			continue
		}
		v, err := strconv.ParseFloat(mt.Value, 64)
		if err != nil {
			return nil, fmt.Errorf("counter %s: %w", mt.Name, err)
		}
		counters[mt.Name] = v
	}
	for _, name := range []string{"cover.celf_reevals", "cover.greedy_iters", "tsp.twoopt_moves", "tsp.oropt_moves"} {
		m[name] = metric{counters[name] / calls, "count"}
	}
	m["cover.pick_ratio"] = metric{ratio(counters["cover.greedy_iters"], counters["cover.celf_reevals"]), "ratio"}

	fields := func(span, key string) (float64, error) {
		sum := 0.0
		for _, s := range tr.Spans {
			if s.Name != span {
				continue
			}
			for _, f := range s.Fields {
				if f.Key != key {
					continue
				}
				v, err := strconv.ParseFloat(f.Value, 64)
				if err != nil {
					return 0, fmt.Errorf("span %s field %s: %w", span, key, err)
				}
				sum += v
			}
		}
		return sum, nil
	}
	for _, f := range []struct{ span, key, metric string }{
		{"refine", "passes", "shdgp.refine_passes"},
		{"refine", "dropped", "shdgp.refine_dropped"},
		{"recover", "new_stops", "replan.new_stops"},
		{"improve", "moves", "replan.moves"},
	} {
		v, err := fields(f.span, f.key)
		if err != nil {
			return nil, err
		}
		m[f.metric] = metric{v / calls, "count"}
	}
	dirty, err := fields("replan", "dirty")
	if err != nil {
		return nil, err
	}
	m["replan.dirty_frac"] = metric{ratio(dirty, float64(warmSensors)), "ratio"}
	return m, nil
}

// seconds converts nanoseconds to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// ratio is a/b for a non-negative b, or 0 when b is 0 (the layer did
// not run).
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
