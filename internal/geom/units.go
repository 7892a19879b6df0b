package geom

// Dimensioned quantities.
//
// The planners juggle three physical dimensions — length, energy, and
// time — and a bare float64 lets a meters-for-joules swap compile
// silently. The named types below (and energy.Joules, sim.Rounds) are
// zero-cost: they compile to exactly the same code as float64, but the
// compiler rejects cross-dimension assignment and arithmetic, and the
// mdglint unitcheck analyzer rejects conversions that would launder a
// dimensioned value back through a bare float64.
//
// Policy (see DESIGN.md "Static analysis"): geometric *primitives* —
// Point coordinates, Dist/Dist2 results, radii inside the covering
// engine — stay raw float64, because dimensional algebra (squared
// distances, scale factors) lives there. The dimensioned types start
// where quantities become results that cross package boundaries: path
// and tour lengths, speeds, energies, and lifetimes. Promoting a raw
// float64 into a dimensioned type is always allowed; stripping the
// dimension requires an annotated conversion boundary.

// Meters is a length or distance in metres, the unit of every tour
// length the experiments report.
type Meters float64

// Scale returns the length scaled by the dimensionless factor f.
func (m Meters) Scale(f float64) Meters { return m * Meters(f) }

// TravelTime returns the time in seconds to cover m at speed v.
func (m Meters) TravelTime(v MetersPerSecond) float64 {
	//mdglint:ignore unitcheck dimensional division boundary: metres over metres-per-second yields seconds
	return float64(m) / float64(v)
}

// MetersPerSecond is a collector speed. The paper cites practical mobile
// systems moving at 0.1-2 m/s.
type MetersPerSecond float64
