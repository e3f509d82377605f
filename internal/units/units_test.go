package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVt(t *testing.T) {
	got := Vt(300)
	if math.Abs(got-0.02585) > 1e-4 {
		t.Errorf("Vt(300K) = %v, want ~25.85mV", got)
	}
}

func TestScaleFactors(t *testing.T) {
	if 5*Ps != 5e-12 {
		t.Errorf("5*Ps = %v", 5*Ps)
	}
	if 0.5*FF != 5e-16 {
		t.Errorf("0.5*FF = %v", 0.5*FF)
	}
	if 20*FF >= PF {
		t.Errorf("20fF should be < 1pF")
	}
}

func TestFormatting(t *testing.T) {
	if got := PsString(5e-12); got != "5.00ps" {
		t.Errorf("PsString = %q", got)
	}
	if got := FFString(2.5e-15); got != "2.50fF" {
		t.Errorf("FFString = %q", got)
	}
	if got := MVString(0.0654); got != "65.4mV" {
		t.Errorf("MVString = %q", got)
	}
}

func TestClampProperties(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		c := Clamp(x, -1, 1)
		return c >= -1 && c <= 1 && (x < -1 || x > 1 || c == x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerpEndpoints(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e100 || math.Abs(b) > 1e100 {
			return true // avoid overflow in b-a; physical values are bounded
		}
		return Lerp(a, b, 0) == a && Lerp(a, b, 1) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSecondsPerYear(t *testing.T) {
	if SecondsPerYear < 365*24*3600 || SecondsPerYear > 366*24*3600 {
		t.Errorf("SecondsPerYear = %v out of range", SecondsPerYear)
	}
}

// Vt returns the thermal voltage kT/q at temperature tempK.
func Vt(tempK float64) float64 { return Boltzmann * tempK / Q }
