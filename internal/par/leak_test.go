// Goroutine-leak regression for the pool contract: ForEach/ForChunks/Map/MapChunks
// spawn workers per fan-out and join them before returning, so no
// goroutine may outlive the call. The external test package lets this
// file use the shared leak checker from internal/check.
package par_test

import (
	"testing"

	"mobicol/internal/check"
	"mobicol/internal/par"
)

func TestPoolOperationsLeakNoGoroutines(t *testing.T) {
	for _, w := range []int{0, 1, 2, 8} {
		p := par.Workers(w)
		check.NoLeakedGoroutines(t, func() {
			_ = par.Map(p, 1000, func(i int) int { return i * i })
			p.ForEach(257, func(int) {})
			p.ForChunks(99, func(lo, hi int) {})
			_ = par.MapChunks(p, 99, func(lo, hi int) int { return hi - lo })
		})
	}
}
