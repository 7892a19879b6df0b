package wsn

import (
	"bytes"
	"math"
	"testing"
)

// FuzzNetworkRead feeds arbitrary bytes to the deployment decoder (the
// format cmd/wsngen writes and every planner CLI reads). Accepted inputs
// must uphold the Network invariants (positive range) and round-trip
// bit-identically through WriteJSON.
func FuzzNetworkRead(f *testing.F) {
	f.Add([]byte(`{"sensors":[[10,10],[20,30]],"sink":[0,0],"range":15,"field":[0,0,100,100]}`))
	f.Add([]byte(`{"sensors":[],"sink":[50,50],"range":1e-3,"field":[0,0,100,100]}`))
	f.Add([]byte(`{"sensors":[[1,1],[1,1],[1,1]],"sink":[1,1],"range":2,"field":[0,0,2,2]}`))
	f.Add([]byte(`{"range":-5}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		nw, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs are fine; panics are the bug
		}
		if nw.Range <= 0 {
			t.Fatalf("decoder accepted non-positive range %v", nw.Range)
		}
		// Exercise the accessors a malformed network would break.
		_ = nw.N()
		_ = nw.Field.Clamp(nw.Sink)
		for i := 0; i < nw.N(); i++ {
			if d := nw.Nodes[i].Pos.Dist(nw.Sink); d < 0 {
				t.Fatalf("negative distance %v for sensor %d", d, i)
			}
		}
		var buf bytes.Buffer
		if err := nw.WriteJSON(&buf); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, err := ReadJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read own output: %v\n%s", err, buf.Bytes())
		}
		if back.N() != nw.N() {
			t.Fatalf("sensor count drifted: %d -> %d", nw.N(), back.N())
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if !same(back.Sink.X, nw.Sink.X) || !same(back.Sink.Y, nw.Sink.Y) || !same(back.Range, nw.Range) {
			t.Fatalf("sink/range drifted: %v r=%v -> %v r=%v", nw.Sink, nw.Range, back.Sink, back.Range)
		}
		for i := 0; i < nw.N(); i++ {
			if !same(back.Nodes[i].Pos.X, nw.Nodes[i].Pos.X) || !same(back.Nodes[i].Pos.Y, nw.Nodes[i].Pos.Y) {
				t.Fatalf("sensor %d drifted: %v -> %v", i, nw.Nodes[i].Pos, back.Nodes[i].Pos)
			}
		}
		for _, v := range [4]float64{nw.Field.Min.X, nw.Field.Min.Y, nw.Field.Max.X, nw.Field.Max.Y} {
			if math.IsNaN(v) {
				return // NaN cannot come from JSON; belt and braces
			}
		}
		if !same(back.Field.Min.X, nw.Field.Min.X) || !same(back.Field.Max.Y, nw.Field.Max.Y) {
			t.Fatalf("field drifted: %v -> %v", nw.Field, back.Field)
		}
	})
}
