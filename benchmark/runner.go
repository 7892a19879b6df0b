package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/debug"
	"runtime/metrics"
	"syscall"

	"mobicol/internal/check"
	"mobicol/internal/collector"
	"mobicol/internal/engine"
	"mobicol/internal/obs"
	"mobicol/internal/par"
)

// fingerprint identifies a plan bit for bit: the tour length's float
// bits, the stop count, and a hash over every stop coordinate and upload
// assignment.
type fingerprint struct {
	lengthBits uint64
	stops      int
	hash       uint64
}

func fingerprintOf(tp *collector.TourPlan) fingerprint {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:]) // hash.Hash writes never fail
	}
	for _, p := range tp.Stops {
		put(math.Float64bits(p.X))
		put(math.Float64bits(p.Y))
	}
	for _, s := range tp.UploadAt {
		put(uint64(int64(s)))
	}
	//mdglint:ignore unitcheck fingerprint boundary: the tour length is hashed as raw float bits
	return fingerprint{lengthBits: math.Float64bits(float64(tp.Length())), stops: len(tp.Stops), hash: h.Sum64()}
}

// sample is the record of one planner call. Only planNs is measured
// inside the timed region; the rest is read around it.
type sample struct {
	idx     int   // position in the workload's cycle
	planNs  int64 // engine.Planner.Plan wall time
	prepNs  int64 // building the call's scenario (Perturb+Apply for warm)
	checkNs int64 // check.Plan wall time
	sensors int   // sensors in the scenario
	allocB  uint64
	gcs     uint64
	cpuNs   int64   // process CPU time (user+system) during Plan
	peakMiB float64 // high-water resident set during Plan
	ok      bool    // planned without error and passed check.Plan
}

// procStats is the process state read around each call.
type procStats struct {
	allocB uint64
	gcs    uint64
	cpuNs  int64
}

// runner plans a workload's calls through the engine seam, one call at a
// time (a closed loop with one client), and verifies every output.
type runner struct {
	ctx      context.Context
	pool     par.Pool
	calls    []call
	planners map[string]engine.Planner
	first    []*fingerprint // first output of each cycle position
	failures []string
	peakNote string // set when the kernel refuses to reset the peak resident set
	probe    []metrics.Sample
}

func newRunner(ctx context.Context, calls []call, pool par.Pool) (*runner, error) {
	r := &runner{
		ctx:      ctx,
		pool:     pool,
		calls:    calls,
		planners: map[string]engine.Planner{},
		first:    make([]*fingerprint, len(calls)),
		probe: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/cycles/total:gc-cycles"},
		},
	}
	for _, c := range calls {
		p, err := engine.Select(c.planner)
		if err != nil {
			return nil, err
		}
		r.planners[c.planner] = p
	}
	return r, nil
}

func (r *runner) read() procStats {
	metrics.Read(r.probe)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return procStats{
		allocB: r.probe[0].Value.Uint64(),
		gcs:    r.probe[1].Value.Uint64(),
		cpuNs:  ru.Utime.Nano() + ru.Stime.Nano(),
	}
}

// one runs cycle position idx: prepare, Plan (timed, traced into tr when
// tr is non-nil), then check.Plan. A planner error or an oracle
// violation is a failed call; an output differing from an earlier output
// of the same position is a determinism error and ends the run.
func (r *runner) one(idx int, tr *obs.Trace) (sample, error) {
	c := r.calls[idx]
	s := sample{idx: idx}
	w := obs.StartWatch()
	sc, err := c.prepare()
	s.prepNs = w.ElapsedNs()
	if err != nil {
		return s, fmt.Errorf("prepare call %d: %w", idx, err)
	}
	s.sensors = sc.Net.N()
	// Every call starts from a collected heap with its free memory
	// returned to the kernel, so neither its time nor its peak resident
	// set depends on what the call before it left behind.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil && r.peakNote == "" {
		r.peakNote = fmt.Sprintf("peak_rss_mb spans the whole process: %v", err)
	}
	before := r.read()
	w = obs.StartWatch()
	pl, _, planErr := r.planners[c.planner].Plan(r.ctx, sc, engine.Options{Pool: r.pool, Obs: tr})
	s.planNs = w.ElapsedNs()
	after := r.read()
	if s.peakMiB, err = peakRSSMiB(); err != nil {
		return s, err
	}
	s.allocB = after.allocB - before.allocB
	s.gcs = after.gcs - before.gcs
	s.cpuNs = after.cpuNs - before.cpuNs
	if planErr != nil {
		r.failures = append(r.failures, fmt.Sprintf("call %d (%s): %v", idx, c.planner, planErr))
		return s, nil
	}
	w = obs.StartWatch()
	err = check.Plan(sc.Net, pl.Tour, check.Options{UploadDist: pl.UploadDist})
	s.checkNs = w.ElapsedNs()
	if err != nil {
		r.failures = append(r.failures, fmt.Sprintf("call %d (%s): %v", idx, c.planner, err))
		return s, nil
	}
	fp := fingerprintOf(pl.Tour)
	if r.first[idx] == nil {
		r.first[idx] = &fp
	} else if *r.first[idx] != fp {
		return s, fmt.Errorf("call %d (%s): output differs from an earlier run of the same input", idx, c.planner)
	}
	s.ok = true
	return s, nil
}

// loop repeats the cycle until budgetNs of wall time has passed and at
// least one whole cycle has run.
func (r *runner) loop(budgetNs int64) ([]sample, error) {
	var out []sample
	w := obs.StartWatch()
	for i := 0; i < len(r.calls) || w.ElapsedNs() < budgetNs; i++ {
		s, err := r.one(i%len(r.calls), nil)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// pairs runs every cycle position twice in a row, untraced and then
// traced into tr, repeating whole cycles until budgetNs of wall time has
// passed. Each traced call thus has an untraced twin measured just
// before it on the same input, which keeps slow drifts of the machine
// out of the tracing overhead.
func (r *runner) pairs(tr *obs.Trace, budgetNs int64) (untraced, traced []sample, err error) {
	w := obs.StartWatch()
	for len(traced) == 0 || w.ElapsedNs() < budgetNs {
		for i := range r.calls {
			u, err := r.one(i, nil)
			if err != nil {
				return nil, nil, err
			}
			t, err := r.one(i, tr)
			if err != nil {
				return nil, nil, err
			}
			untraced = append(untraced, u)
			traced = append(traced, t)
		}
	}
	return untraced, traced, nil
}

// canonicalTrace plans cycle position 0 into a fresh trace and returns
// the trace with its timing fields stripped: the call's complete work
// record (phase spans, their fields, and every counter). Two calls on
// the same input must return identical bytes.
func (r *runner) canonicalTrace() ([]byte, error) {
	var buf bytes.Buffer
	tr := obs.New(&buf)
	if _, err := r.one(0, tr); err != nil {
		return nil, err
	}
	if err := tr.Close(); err != nil {
		return nil, err
	}
	var out []byte
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		canon, err := obs.CanonicalLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, canon...)
		out = append(out, '\n')
	}
	return out, nil
}

// tourM is the mean tour length over the cycle's scored calls.
func (r *runner) tourM() float64 {
	sum, n := 0.0, 0
	for i, c := range r.calls {
		if c.scored && r.first[i] != nil {
			sum += math.Float64frombits(r.first[i].lengthBits)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
