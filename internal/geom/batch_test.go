package geom

import (
	"testing"

	"mobicol/internal/rng"
)

// TestBatchKernelsMatchScalar pins the gather kernel to Point.Dist2 bit
// for bit over random index sets, repeats included.
func TestBatchKernelsMatchScalar(t *testing.T) {
	s := rng.New(7)
	pts := randPoints(s, 500, 300)
	xs, ys := SplitXY(pts, nil, nil)
	idx := make([]int32, 200)
	out := make([]float64, len(idx))
	for trial := 0; trial < 20; trial++ {
		q := Pt(s.Uniform(-20, 320), s.Uniform(-20, 320))
		for k := range idx {
			idx[k] = int32(s.Intn(len(pts)))
		}
		Dist2Gather(xs, ys, idx, q, out)
		for k, i := range idx {
			if out[k] != pts[i].Dist2(q) {
				t.Fatalf("Dist2Gather[%d] = %v, Dist2 = %v", k, out[k], pts[i].Dist2(q))
			}
		}
	}
}

func TestDist2Gather(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(3, 4), Pt(6, 8), Pt(1, 1)}
	xs, ys := SplitXY(pts, nil, nil)
	idx := []int32{2, 0, 3}
	out := make([]float64, len(idx))
	Dist2Gather(xs, ys, idx, Pt(0, 0), out)
	want := []float64{100, 0, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Dist2Gather[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestSplitXYReusesBuffers(t *testing.T) {
	pts := []Point{Pt(1, 2), Pt(3, 4)}
	xs := make([]float64, 0, 8)
	ys := make([]float64, 0, 8)
	xs, ys = SplitXY(pts, xs, ys)
	if len(xs) != 2 || xs[1] != 3 || ys[1] != 4 {
		t.Fatalf("SplitXY = %v, %v", xs, ys)
	}
}

func BenchmarkDist2Gather10k(b *testing.B) {
	pts := randPoints(rng.New(1), 10_000, 2000)
	xs, ys := SplitXY(pts, nil, nil)
	idx := make([]int32, len(pts))
	for i := range idx {
		idx[i] = int32(i)
	}
	out := make([]float64, len(pts))
	q := Pt(1000, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dist2Gather(xs, ys, idx, q, out)
	}
}

func BenchmarkGridIndexAutoBuild10k(b *testing.B) {
	pts := randPoints(rng.New(1), 10_000, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewGridIndexAuto(pts, 0)
	}
}
