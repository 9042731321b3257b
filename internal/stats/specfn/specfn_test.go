package specfn

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > tol {
		t.Errorf("%s = %.12g, want %.12g (tol %g)", name, got, want, tol)
	}
}

func TestLogBeta(t *testing.T) {
	// B(1,1)=1, B(2,3)=1/12, B(0.5,0.5)=pi.
	approx(t, "LogBeta(1,1)", LogBeta(1, 1), 0, 1e-12)
	approx(t, "LogBeta(2,3)", LogBeta(2, 3), math.Log(1.0/12.0), 1e-12)
	approx(t, "LogBeta(.5,.5)", LogBeta(0.5, 0.5), math.Log(math.Pi), 1e-12)
}

func TestLogBetaPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive argument")
		}
	}()
	LogBeta(0, 1)
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		approx(t, "I_x(1,1)", RegIncBeta(1, 1, x), x, 1e-12)
	}
	// I_x(2,2) = x^2(3-2x).
	for _, x := range []float64{0.1, 0.3, 0.9} {
		approx(t, "I_x(2,2)", RegIncBeta(2, 2, x), x*x*(3-2*x), 1e-10)
	}
	// I_x(5,3) = sum_{j=5}^{7} C(7,j) x^j (1-x)^(7-j) = 0.0962560 at x = 0.4.
	approx(t, "I_.4(5,3)", RegIncBeta(5, 3, 0.4), 0.0962560, 1e-7)
	// I_x(1/2,1/2) = (2/pi) asin(sqrt(x)) — the arcsine law.
	approx(t, "I_.7(.5,.5)", RegIncBeta(0.5, 0.5, 0.7), 2/math.Pi*math.Asin(math.Sqrt(0.7)), 1e-9)
}

func TestRegIncBetaBoundsAndMonotone(t *testing.T) {
	err := quick.Check(func(a8, b8 uint8, x float64) bool {
		a := 0.5 + float64(a8%40)/4
		b := 0.5 + float64(b8%40)/4
		x = math.Abs(math.Mod(x, 1))
		v := RegIncBeta(a, b, x)
		if v < 0 || v > 1 || math.IsNaN(v) {
			return false
		}
		// Monotone in x.
		x2 := x + (1-x)/3
		return RegIncBeta(a, b, x2) >= v-1e-12
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestRegIncBetaSymmetry(t *testing.T) {
	err := quick.Check(func(a8, b8 uint8, x float64) bool {
		a := 0.5 + float64(a8%20)/2
		b := 0.5 + float64(b8%20)/2
		x = math.Abs(math.Mod(x, 1))
		lhs := RegIncBeta(a, b, x)
		rhs := 1 - RegIncBeta(b, a, 1-x)
		return math.Abs(lhs-rhs) < 1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestInvErf(t *testing.T) {
	for _, p := range []float64{-0.999, -0.9, -0.5, -0.1, 0, 0.1, 0.5, 0.9, 0.999, 0.9999} {
		x := InvErf(p)
		approx(t, "erf(inverf(p))", math.Erf(x), p, 1e-10)
	}
	if !math.IsInf(InvErf(1), 1) || !math.IsInf(InvErf(-1), -1) {
		t.Error("InvErf at +-1 should be infinite")
	}
}

func TestInvErfRoundtripQuick(t *testing.T) {
	err := quick.Check(func(u float64) bool {
		p := math.Mod(math.Abs(u), 0.9999)
		return math.Abs(math.Erf(InvErf(p))-p) < 1e-9
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
