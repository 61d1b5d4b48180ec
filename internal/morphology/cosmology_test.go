package morphology

import (
	"math"
	"testing"
	"testing/quick"
)

// paperCosmology is the parameter set from the paper's example derivation:
// Ho=100, om=0.3, flat=1.
func paperCosmology() Cosmology { return Cosmology{H0: 100, OmegaM: 0.3, Flat: true} }

func TestValidate(t *testing.T) {
	if err := paperCosmology().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Cosmology{H0: 0, OmegaM: 0.3}).Validate(); err == nil {
		t.Error("H0=0 must be invalid")
	}
	if err := (Cosmology{H0: 70, OmegaM: -1}).Validate(); err == nil {
		t.Error("negative OmegaM must be invalid")
	}
}

func TestZeroRedshift(t *testing.T) {
	c := paperCosmology()
	if c.ComovingDistance(0) != 0 || c.AngularDiameterDistance(0) != 0 || c.LuminosityDistance(0) != 0 {
		t.Error("all distances must vanish at z=0")
	}
}

func TestLowRedshiftHubbleLaw(t *testing.T) {
	// At z<<1, D ≈ cz/H0 regardless of densities.
	c := paperCosmology()
	z := 0.001
	want := speedOfLight * z / c.H0
	got := c.ComovingDistance(z)
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("D_C(%v) = %v, want ~%v", z, got, want)
	}
}

func TestKnownLCDMValue(t *testing.T) {
	// For H0=70, Om=0.3 flat, D_C(1) ≈ 3303 Mpc (standard value).
	c := Cosmology{H0: 70, OmegaM: 0.3, Flat: true}
	got := c.ComovingDistance(1)
	if math.Abs(got-3303) > 15 {
		t.Errorf("D_C(1) = %v Mpc, want ~3303", got)
	}
	// D_L = (1+z)·D_M, D_A = D_M/(1+z) in flat space.
	if dl := c.LuminosityDistance(1); math.Abs(dl-2*got) > 1 {
		t.Errorf("D_L(1) = %v, want %v", dl, 2*got)
	}
	if da := c.AngularDiameterDistance(1); math.Abs(da-got/2) > 1 {
		t.Errorf("D_A(1) = %v, want %v", da, got/2)
	}
}

func TestEinsteinDeSitterClosedForm(t *testing.T) {
	// For Om=1 flat (EdS), D_C(z) = 2(c/H0)(1 - 1/sqrt(1+z)).
	c := Cosmology{H0: 70, OmegaM: 1, Flat: true}
	for _, z := range []float64{0.1, 0.5, 1, 2} {
		want := 2 * (speedOfLight / 70) * (1 - 1/math.Sqrt(1+z))
		got := c.ComovingDistance(z)
		if math.Abs(got-want)/want > 1e-4 {
			t.Errorf("EdS D_C(%v) = %v, want %v", z, got, want)
		}
	}
}

func TestOpenUniverseCurvature(t *testing.T) {
	// Open universe (Om=0.3, no lambda): transverse distance exceeds the
	// line-of-sight comoving distance (sinh correction > identity).
	c := Cosmology{H0: 100, OmegaM: 0.3, Flat: false}
	dc := c.ComovingDistance(1)
	dm := c.transverseComovingDistance(1)
	if dm <= dc {
		t.Errorf("open universe D_M=%v should exceed D_C=%v", dm, dc)
	}
}

func TestDistancesMonotonic(t *testing.T) {
	c := paperCosmology()
	f := func(z1, z2 float64) bool {
		z1 = math.Abs(math.Mod(z1, 5))
		z2 = math.Abs(math.Mod(z2, 5))
		if z1 > z2 {
			z1, z2 = z2, z1
		}
		if z1 == z2 {
			return true
		}
		return c.ComovingDistance(z1) < c.ComovingDistance(z2) &&
			c.LuminosityDistance(z1) < c.LuminosityDistance(z2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDistanceModulus(t *testing.T) {
	c := paperCosmology()
	// Coma-like z=0.023: D_L ≈ 70 Mpc for H0=100 → mu ≈ 34.2.
	mu := c.DistanceModulus(0.023)
	if mu < 33.5 || mu > 35 {
		t.Errorf("mu(0.023) = %v, want ~34.2", mu)
	}
	if c.DistanceModulus(0) != 0 {
		t.Error("mu(0) must be 0")
	}
}

func TestKpcPerArcsec(t *testing.T) {
	// For H0=100 Om=0.3 flat at z=0.0279 (the paper's example galaxy),
	// D_A ≈ 80 Mpc → ~0.39 kpc/arcsec.
	c := paperCosmology()
	got := c.KpcPerArcsec(0.0279)
	if got < 0.3 || got > 0.5 {
		t.Errorf("kpc/arcsec at z=0.0279 = %v, want ~0.39", got)
	}
}

// TestScalesMatchSeparateIntegrations: the one-integration pair a
// measurement uses is DistanceModulus and KpcPerArcsec bit for bit, over
// flat, open and closed models and redshifts from none to high.
func TestScalesMatchSeparateIntegrations(t *testing.T) {
	for _, c := range []Cosmology{
		paperCosmology(), {H0: 70, OmegaM: 0.3}, {H0: 70, OmegaM: 2.5}, {H0: 50, OmegaM: 1, Flat: true}, {H0: 100},
	} {
		for _, z := range []float64{-1, 0, 1e-6, 0.0279, 0.04, 0.5, 3} {
			mu, kpc := c.scales(z)
			if math.Float64bits(mu) != math.Float64bits(c.DistanceModulus(z)) ||
				math.Float64bits(kpc) != math.Float64bits(c.KpcPerArcsec(z)) {
				t.Errorf("%+v z=%v: scales = (%v, %v), separate integrations (%v, %v)",
					c, z, mu, kpc, c.DistanceModulus(z), c.KpcPerArcsec(z))
			}
		}
	}
}

func BenchmarkComovingDistance(b *testing.B) {
	c := paperCosmology()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.ComovingDistance(0.5)
	}
}
