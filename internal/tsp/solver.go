package tsp

import (
	"fmt"
	"strconv"

	"mobicol/internal/geom"
	"mobicol/internal/obs"
	"mobicol/internal/par"
)

// Construction selects the tour-construction heuristic.
type Construction int

const (
	// ConstructNN is nearest neighbour from point 0.
	ConstructNN Construction = iota
	// ConstructGreedy is greedy-edge matching.
	ConstructGreedy
	// ConstructChristofides is MST + odd-vertex matching + Euler walk.
	ConstructChristofides
)

// String names the construction.
func (c Construction) String() string {
	switch c {
	case ConstructNN:
		return "nearest-neighbor"
	case ConstructGreedy:
		return "greedy-edge"
	case ConstructChristofides:
		return "christofides"
	default:
		return "Construction(" + strconv.Itoa(int(c)) + ")"
	}
}

// Options configures Solve.
type Options struct {
	Construction Construction
	TwoOpt       bool // run 2-opt local search
	OrOpt        bool // run Or-opt local search (after 2-opt)
	ExactBelow   int  // use Held–Karp when n <= ExactBelow (and <= HeldKarpMax)
	// Obs, when non-nil, receives one child span per solver stage
	// (construction and each improvement pass) with the tour-length
	// delta each stage contributed. Nil disables tracing at zero cost.
	Obs *obs.Span
	// Pool spreads the k-nearest list build and the sparse greedy-edge
	// candidates of large instances across workers. The zero value runs
	// sequentially; every pool size returns the identical tour.
	Pool par.Pool
}

// DefaultOptions is the configuration the planners use: greedy-edge
// construction, both local searches, exact solving for tiny instances.
func DefaultOptions() Options {
	return Options{Construction: ConstructGreedy, TwoOpt: true, OrOpt: true, ExactBelow: 12}
}

// Solve returns a closed tour over pts according to opts.
//
//mdglint:allow-alloc(per-solve setup: construction and neighbour lists allocate once; the improvement passes are scratch-based hot roots)
func Solve(pts []geom.Point, opts Options) Tour {
	n := len(pts)
	if n <= 3 {
		return trivialTour(n)
	}
	if opts.ExactBelow > 0 && n <= opts.ExactBelow && n <= HeldKarpMax {
		if t, err := HeldKarp(pts); err == nil {
			sp := opts.Obs.Child("construct")
			sp.SetStr("method", "held-karp")
			sp.SetInt("n", int64(n))
			//mdglint:ignore unitcheck obs boundary: trace fields carry raw numbers
			sp.SetFloat("len", float64(t.Length(pts)))
			sp.End()
			return t
		}
	}
	sp := opts.Obs.Child("construct")
	greedy := opts.Construction == ConstructGreedy
	// neigh is the sorted candidate lists the greedy-edge construction
	// and both local searches share: greedy-edge takes them whole, the
	// local searches their neighborK-wide prefixes.
	var neigh [][]int
	var knnEvals int64
	if greedy || opts.TwoOpt || opts.OrOpt {
		k := neighborK
		if greedy {
			k = greedyListK(n)
		}
		neigh, knnEvals = neighborLists(pts, k, opts.Pool)
	}
	var t Tour
	greedyEdges := 0
	switch opts.Construction {
	case ConstructNN:
		t = NearestNeighbor(pts, 0)
	case ConstructGreedy:
		t, greedyEdges = greedyEdgeSparse(pts, neigh, opts.Pool)
	case ConstructChristofides:
		t = Christofides(pts)
	default:
		//mdglint:ignore nopanic exhaustive switch over a closed enum; a new variant must fail loudly in tests
		panic(fmt.Sprintf("tsp: unknown construction %v", opts.Construction))
	}
	// Length recomputation is O(n); only pay for it when traced.
	if opts.Obs != nil {
		sp.SetStr("method", opts.Construction.String())
		sp.SetInt("n", int64(n))
		//mdglint:ignore unitcheck obs boundary: trace fields carry raw numbers
		sp.SetFloat("len", float64(t.Length(pts)))
		if neigh != nil {
			sp.Count("tsp.knn_evals", knnEvals)
		}
		if greedy {
			sp.Count("tsp.greedy_edges", int64(greedyEdges))
		}
	}
	sp.End()
	// One scratch serves every pass: the second 2-opt pass reuses the
	// buffers the first one grew.
	var s Scratch
	neigh = prefixLists(neigh, neighborK)
	twoOpt := func(p []geom.Point, t Tour) int { return s.TwoOpt(p, t, neigh) }
	orOpt := func(p []geom.Point, t Tour) int { return s.OrOpt(p, t, neigh) }
	if opts.TwoOpt {
		improvePass(pts, t, opts.Obs, "twoopt", "tsp.twoopt_moves", twoOpt)
	}
	if opts.OrOpt {
		improvePass(pts, t, opts.Obs, "oropt", "tsp.oropt_moves", orOpt)
		if opts.TwoOpt {
			// Or-opt moves can open new 2-opt improvements; one more
			// pass is cheap and usually closes them.
			improvePass(pts, t, opts.Obs, "twoopt", "tsp.twoopt_moves", twoOpt)
		}
	}
	return t
}

// improvePass runs one local-search pass, recording — when traced — the
// pass's span with its move count and the tour-length delta it bought,
// plus a running counter of improvement moves per neighbourhood.
func improvePass(pts []geom.Point, t Tour, parent *obs.Span, name, counter string, pass func([]geom.Point, Tour) int) {
	if parent == nil {
		pass(pts, t)
		return
	}
	sp := parent.Child(name)
	before := t.Length(pts)
	moves := pass(pts, t)
	after := t.Length(pts)
	sp.SetInt("moves", int64(moves))
	//mdglint:ignore unitcheck obs boundary: trace fields carry raw numbers
	sp.SetFloat("delta", float64(before-after))
	//mdglint:ignore unitcheck obs boundary: trace fields carry raw numbers
	sp.SetFloat("len", float64(after))
	sp.Count(counter, int64(moves))
	sp.End()
}
