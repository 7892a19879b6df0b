package geom

// Flat coordinate slices for the distance scans. Answering "how far is
// every point in this set from q?" over []Point forces a 16-byte strided
// load per point, while answering over parallel xs/ys []float64 slices
// keeps the inner loop in registers and lets the compiler vectorise it.
// The TSP k-nearest build splits its points once with SplitXY and scores
// each grid query's hits with Dist2Gather.
//
// Dist2Gather works on squared distances (the comparison-safe form that
// avoids the square root) and performs no allocation; callers own every
// buffer. Its arithmetic is dx*dx + dy*dy, bit-identical to Point.Dist2,
// so swapping a scalar loop for it never changes a plan.

// SplitXY appends the coordinates of pts to xs and ys and returns the
// extended slices. Pass reused buffers (xs[:0], ys[:0]) to avoid
// allocation in hot loops; pass nil to let append size them.
func SplitXY(pts []Point, xs, ys []float64) ([]float64, []float64) {
	for _, p := range pts {
		//mdglint:allow-alloc(amortized growth of the caller's coordinate buffers)
		xs = append(xs, p.X)
		//mdglint:allow-alloc(amortized growth of the caller's coordinate buffers)
		ys = append(ys, p.Y)
	}
	return xs, ys
}

// Dist2Gather writes out[k] = squared distance from point idx[k] to q,
// gathering coordinates through the index slice. It is the kernel behind
// grid-bucket filtering, where the candidate indices are not contiguous.
//
//mdglint:hotpath
func Dist2Gather(xs, ys []float64, idx []int32, q Point, out []float64) {
	n := len(idx)
	out = out[:n]
	for k := 0; k < n; k++ {
		i := idx[k]
		dx := xs[i] - q.X
		dy := ys[i] - q.Y
		out[k] = dx*dx + dy*dy
	}
}
