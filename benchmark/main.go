// Command benchmark is the repository's end-to-end planning benchmark.
// It runs one named workload generated from a seed, plans only through
// the engine seam (engine.Select(name).Plan), checks every plan with
// check.Plan, and prints one JSON result object as the last line of its
// standard output:
//
//	bash benchmark/run.sh --workload cold-100k --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it reports per-layer metrics: it plans every call of the
// workload's cycle twice, untraced and then traced, for whole cycles
// until --seconds have passed; the traced calls' JSONL trace is
// attributed to layers and written to --out for mdgtrace. README.md describes the
// workloads, the metrics and how the layers map onto them.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"

	"mobicol/internal/obs"
	"mobicol/internal/par"
	"mobicol/internal/stats"
)

// The set-up runs at least minSetupReps times and, while it is cheap,
// until minSetupNs of set-up time or maxSetupReps runs have passed;
// setup_s is the median.
const (
	minSetupReps = 3
	maxSetupReps = 100
	minSetupNs   = 500e6
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cold-10k, cold-100k, warm-100k or paper-e2")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	secs := fs.Float64("seconds", 35, "wall seconds the measured loop runs for")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory the traced run writes its JSONL trace to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	res, err := measure(wl, *seed, *secs, *trace == 1, *out, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure sets the workload up, runs it and collects its metrics. The
// human-readable report goes to w ahead of the JSON line.
func measure(wl workload, seed uint64, secs float64, trace bool, outDir string, w io.Writer) (*result, error) {
	ctx := context.Background()
	pool := par.Workers(0)

	in, setupNs, deployNs, err := setUp(ctx, wl, seed, pool)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(ctx, in.calls, pool)
	if err != nil {
		return nil, err
	}

	// The first call of the cycle, traced, is both the warm-up and the
	// reference work record the run's last call must reproduce.
	ref, err := r.canonicalTrace()
	if err != nil {
		return nil, err
	}

	budgetNs := int64(secs * 1e9)
	res := &result{Metrics: map[string]metric{}}
	var samples, traced []sample
	var notes []string
	if !trace {
		samples, notes, err = endToEnd(r, budgetNs, setupNs, res.Metrics)
	} else {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", wl.name, seed))
		samples, traced, err = perLayer(r, budgetNs, deployNs, path, res.Metrics)
		notes = append(notes, "trace "+path+" (mdgtrace summary -timing "+path+")")
	}
	if err != nil {
		return nil, err
	}
	samples = append(samples, traced...)

	again, err := r.canonicalTrace()
	if err != nil {
		return nil, err
	}
	deterministic := bytes.Equal(ref, again)
	if !deterministic {
		notes = append(notes, "work record of call 0 differs between two runs of the same input")
	}

	res.Attempted = len(samples)
	for _, s := range samples {
		if !s.ok {
			res.Failed++
		}
	}
	res.Correct = deterministic && res.Failed == 0
	report(w, wl.name, seed, len(r.calls), pool.Size(), res, append(notes, r.failures...))
	return res, nil
}

// setUp runs the workload's set-up repeatedly and keeps the last
// inputs. It returns the time of every set-up and of every wsn.Deploy
// inside them, in nanoseconds.
func setUp(ctx context.Context, wl workload, seed uint64, pool par.Pool) (in *inputs, setupNs, deployNs []float64, err error) {
	total := 0.0
	for len(setupNs) < minSetupReps || (len(setupNs) < maxSetupReps && total < minSetupNs) {
		// Like every planner call, every set-up starts from a collected
		// heap with its free memory returned to the kernel; otherwise its
		// page faults depend on when the runtime last released memory.
		in = nil
		debug.FreeOSMemory()
		watch := obs.StartWatch()
		in, err = wl.setup(ctx, seed, pool)
		ns := float64(watch.ElapsedNs())
		setupNs = append(setupNs, ns)
		total += ns
		if err != nil {
			return nil, nil, nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		for _, ns := range in.deployNs {
			deployNs = append(deployNs, float64(ns))
		}
	}
	return in, setupNs, deployNs, nil
}

// endToEnd runs the untraced loop and fills m with the end-to-end
// metrics.
func endToEnd(r *runner, budgetNs int64, setupNs []float64, m map[string]metric) ([]sample, []string, error) {
	samples, err := r.loop(budgetNs)
	if err != nil {
		return nil, nil, err
	}
	planS := okValues(samples, planSeconds)
	m["plan_s_p50"] = metric{percentile(planS, 50), "s"}
	m["plans_per_s"] = metric{1 / stats.Mean(planS), "1/s"}
	m["tour_m"] = metric{r.tourM(), "m"}
	m["peak_rss_mb"] = metric{percentile(okValues(samples, peakMiB), 50), "MiB"}
	m["setup_s"] = metric{percentile(setupNs, 50) / 1e9, "s"}
	var notes []string
	if len(planS) >= 100 {
		notes = append(notes, fmt.Sprintf("plan_s_p90 %.6g s", percentile(planS, 90)))
	}
	if r.peakNote != "" {
		notes = append(notes, r.peakNote)
	}
	return samples, notes, nil
}

// perLayer runs untraced/traced call pairs, writes the traced calls'
// JSONL trace to path and fills m with the per-layer metrics.
func perLayer(r *runner, budgetNs int64, deployNs []float64, path string, m map[string]metric) (untraced, traced []sample, err error) {
	var buf bytes.Buffer
	tr := obs.New(&buf)
	untraced, traced, err = r.pairs(tr, budgetNs)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.Close(); err != nil {
		return nil, nil, err
	}
	if err := writeFile(path, buf.Bytes()); err != nil {
		return nil, nil, err
	}
	layers, err := traceLayers(buf.Bytes(), r.calls, traced)
	if err != nil {
		return nil, nil, err
	}
	for name, v := range layers {
		m[name] = v
	}
	addRuntimeLayers(m, r.calls, untraced, traced, deployNs)
	return untraced, traced, nil
}

// addRuntimeLayers adds the layer metrics timed from outside the planner:
// deployment, delta generation, the oracle, memory and CPU per call, and
// the tracing overhead.
func addRuntimeLayers(m map[string]metric, calls []call, untraced, traced []sample, deployNs []float64) {
	n := float64(len(untraced))
	var prepNs, checkNs, planNs, cpuNs int64
	var allocB, gcs uint64
	for _, s := range untraced {
		if calls[s.idx].planner == "warm" {
			prepNs += s.prepNs
		}
		checkNs += s.checkNs
		planNs += s.planNs
		cpuNs += s.cpuNs
		allocB += s.allocB
		gcs += s.gcs
	}
	m["wsn.deploy_s"] = metric{percentile(deployNs, 50) / 1e9, "s"}
	m["replan.perturb_s"] = metric{seconds(prepNs) / n, "s"}
	m["check.plan_s"] = metric{seconds(checkNs) / n, "s"}
	m["runtime.alloc_mb_per_plan"] = metric{float64(allocB) / (1 << 20) / n, "MiB"}
	m["runtime.gc_cycles_per_plan"] = metric{float64(gcs) / n, "count"}
	m["par.cpu_per_wall"] = metric{ratio(float64(cpuNs), float64(planNs)), "ratio"}
	// Traced over untraced median of the same calls, planned in pairs.
	overhead := percentile(okValues(traced, planSeconds), 50)/percentile(okValues(untraced, planSeconds), 50) - 1
	m["obs.trace_overhead"] = metric{overhead, "ratio"}
}

// okValues returns v of every call that succeeded.
func okValues(samples []sample, v func(sample) float64) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok {
			out = append(out, v(s))
		}
	}
	return out
}

func planSeconds(s sample) float64 { return seconds(s.planNs) }

func peakMiB(s sample) float64 { return s.peakMiB }

// percentile is the p-th percentile (0–100) of xs, NaN when xs is empty.
func percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return stats.Percentile(sorted, p)
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// report prints the run's metrics, one per line, ahead of the JSON line.
func report(w io.Writer, name string, seed uint64, cycle, workers int, res *result, notes []string) {
	fmt.Fprintf(w, "workload %s  seed %d  cycle %d calls  workers %d\n", name, seed, cycle, workers)
	failedFrac := ratio(float64(res.Failed), float64(res.Attempted))
	fmt.Fprintf(w, "  %-28s %d (failed_frac %.4g)\n", "calls", res.Attempted, failedFrac)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, n := range notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}
