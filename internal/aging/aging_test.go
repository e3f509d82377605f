package aging

import (
	"math"
	"testing"
	"testing/quick"

	"ageguard/internal/units"
)

func TestWorstCaseCalibration(t *testing.T) {
	m := DefaultModel()
	p := m.PMOS(WorstCase(10))
	n := m.NMOS(WorstCase(10))
	// Calibration targets from the package comment (10y worst case).
	if p.DVth < 50*units.MV || p.DVth > 80*units.MV {
		t.Errorf("pMOS 10y dVth = %s, want 50-80mV", units.MVString(p.DVth))
	}
	if n.DVth < 20*units.MV || n.DVth > 45*units.MV {
		t.Errorf("nMOS 10y dVth = %s, want 20-45mV", units.MVString(n.DVth))
	}
	// NBTI must dominate PBTI (the asymmetry behind Fig. 1).
	if p.DVth <= n.DVth {
		t.Error("NBTI should exceed PBTI")
	}
	if p.MuFactor >= 1 || p.MuFactor < 0.8 {
		t.Errorf("pMOS mobility factor = %v, want (0.8, 1)", p.MuFactor)
	}
	if n.MuFactor >= 1 || n.MuFactor < 0.95 {
		t.Errorf("nMOS mobility factor = %v, want (0.95, 1)", n.MuFactor)
	}
}

func TestFreshScenario(t *testing.T) {
	m := DefaultModel()
	for _, d := range []Degradation{m.PMOS(Fresh()), m.NMOS(Fresh())} {
		if d.DVth != 0 || d.MuFactor != 1 {
			t.Errorf("fresh scenario degraded: %v", d)
		}
	}
	if !Fresh().IsFresh() {
		t.Error("Fresh().IsFresh() = false")
	}
	if WorstCase(10).IsFresh() {
		t.Error("WorstCase(10).IsFresh() = true")
	}
}

func TestMonotoneInTime(t *testing.T) {
	m := DefaultModel()
	prev := 0.0
	for _, y := range []float64{0.1, 0.5, 1, 2, 5, 10, 20} {
		d := m.PMOS(WorstCase(y))
		if d.DVth <= prev {
			t.Fatalf("dVth not increasing at %vy", y)
		}
		prev = d.DVth
	}
}

func TestMonotoneInLambda(t *testing.T) {
	m := DefaultModel()
	prev := -1.0
	for _, l := range LambdaGrid() {
		d := m.PMOS(WorstCase(10).WithLambda(l, l))
		if d.DVth <= prev && l > 0 {
			t.Fatalf("dVth not increasing with lambda at %v", l)
		}
		prev = d.DVth
	}
}

func TestLambdaZeroMeansNoAging(t *testing.T) {
	m := DefaultModel()
	d := m.PMOS(WorstCase(10).WithLambda(0, 1))
	if d.DVth != 0 || d.MuFactor != 1 {
		t.Errorf("lambdaP=0 should mean no pMOS aging, got %v", d)
	}
	dn := m.NMOS(WorstCase(10).WithLambda(1, 0))
	if dn.DVth != 0 || dn.MuFactor != 1 {
		t.Errorf("lambdaN=0 should mean no nMOS aging, got %v", dn)
	}
}

func TestBalanceBelowWorst(t *testing.T) {
	m := DefaultModel()
	w := m.PMOS(WorstCase(10))
	b := m.PMOS(BalanceCase(10))
	if b.DVth >= w.DVth {
		t.Error("balance-case should age less than worst-case")
	}
	// But AC/DC ratio is sub-linear: at lambda=0.5 expect well above half.
	if b.DVth < 0.5*w.DVth {
		t.Errorf("balance dVth = %v of worst, want sub-linear (>0.5)", b.DVth/w.DVth)
	}
}

func TestVthOnly(t *testing.T) {
	m := DefaultModel()
	d := m.PMOS(WorstCase(10))
	vo := d.VthOnly()
	if vo.MuFactor != 1 || vo.DVth != d.DVth {
		t.Errorf("VthOnly wrong: %v", vo)
	}
}

func TestGridScenarios(t *testing.T) {
	g := GridScenarios(10)
	if len(g) != 121 {
		t.Fatalf("grid size = %d, want 121 (the paper's library count)", len(g))
	}
	seen := map[string]bool{}
	for _, s := range g {
		if seen[s.Key()] {
			t.Fatalf("duplicate scenario key %s", s.Key())
		}
		seen[s.Key()] = true
		if s.Years != 10 {
			t.Fatalf("scenario years = %v", s.Years)
		}
	}
	if !seen["0.4_0.6"] || !seen["1.0_1.0"] || !seen["0.0_0.0"] {
		t.Error("expected canonical keys missing")
	}
}

func TestKeyFormat(t *testing.T) {
	s := WorstCase(10).WithLambda(0.4, 0.6)
	if s.Key() != "0.4_0.6" {
		t.Errorf("Key = %q, want 0.4_0.6 (paper's naming)", s.Key())
	}
}

// TestExactKey: scenarios that Key and String round together — duty
// cycles one decimal apart, lifetimes within a twentieth of a year,
// another temperature or supply — have distinct exact keys, and equal
// scenarios have equal ones, in file-name-safe characters only.
func TestExactKey(t *testing.T) {
	worst := WorstCase(10)
	hot := worst
	hot.TempK += 10
	low := worst
	low.Vdd = 1.0
	for _, pair := range [][2]Scenario{
		{worst.WithLambda(0.25, 0.75), worst.WithLambda(0.2, 0.8)},
		{worst, WorstCase(10.04)},
		{worst, hot},
		{worst, low},
	} {
		a, b := pair[0].ExactKey(), pair[1].ExactKey()
		if pair[0].Key() != pair[1].Key() || pair[0].String() != pair[1].String() {
			t.Fatalf("%v and %v: the pair should share Key and String", pair[0], pair[1])
		}
		if a == b {
			t.Errorf("%v and %v share exact key %s", pair[0], pair[1], a)
		}
	}
	if a, b := WorstCase(10).ExactKey(), worst.ExactKey(); a != b {
		t.Errorf("equal scenarios: exact keys %s and %s", a, b)
	}
	for _, c := range Fresh().ExactKey() + worst.ExactKey() {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || c == '_') {
			t.Fatalf("exact key carries %q", c)
		}
	}
}

func TestSnapLambda(t *testing.T) {
	cases := map[float64]float64{0.44: 0.4, 0.45: 0.5, 0.0: 0, 1.0: 1, 1.7: 1, -0.2: 0, 0.06: 0.1}
	for in, want := range cases {
		if got := SnapLambda(in); math.Abs(got-want) > 1e-12 {
			t.Errorf("SnapLambda(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestSnapLambdaProperty(t *testing.T) {
	f := func(l float64) bool {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return true
		}
		s := SnapLambda(l)
		if s < 0 || s > 1 {
			return false
		}
		// Must be on the 0.1 grid.
		return math.Abs(s*10-math.Round(s*10)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTemperatureAcceleration(t *testing.T) {
	m := DefaultModel()
	hot := WorstCase(10)
	cold := hot
	cold.TempK = hot.TempK - 50
	if m.PMOS(cold).DVth >= m.PMOS(hot).DVth {
		t.Error("lower temperature should age less")
	}
}

func TestVoltageAcceleration(t *testing.T) {
	m := DefaultModel()
	nom := WorstCase(10)
	over := nom
	over.Vdd = nom.Vdd * 1.1
	if m.PMOS(over).DVth <= m.PMOS(nom).DVth {
		t.Error("overdrive should age more")
	}
}

func TestDegradationString(t *testing.T) {
	m := DefaultModel()
	s := m.PMOS(WorstCase(10)).String()
	if s == "" {
		t.Error("empty String()")
	}
}

func TestScenarioValidate(t *testing.T) {
	good := []Scenario{
		Fresh(),
		WorstCase(10),
		BalanceCase(10),
		WorstCase(10).WithLambda(0, 1),
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%v: unexpected Validate error: %v", s, err)
		}
	}
	bad := []Scenario{
		WorstCase(10).WithLambda(math.NaN(), 0.5),
		WorstCase(10).WithLambda(0.5, math.NaN()),
		WorstCase(10).WithLambda(math.Inf(1), 0.5),
		WorstCase(10).WithLambda(-0.1, 0.5),
		WorstCase(10).WithLambda(0.5, 1.1),
		WorstCase(-1),
		{Years: math.NaN(), TempK: units.RoomTempK, Vdd: 1.1},
		{Years: 10, TempK: math.Inf(-1), Vdd: 1.1},
		{Years: 10, TempK: units.RoomTempK, Vdd: math.NaN()},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%v: Validate accepted an invalid scenario", s)
		}
	}
}

// IsFresh reports whether the scenario involves no aging at all.
func (s Scenario) IsFresh() bool {
	return s.Years == 0 || (s.LambdaP == 0 && s.LambdaN == 0)
}
