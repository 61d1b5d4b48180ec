package morphology

import (
	"errors"
	"math"
)

// Cosmology is the Friedmann model the galMorph transformation of the paper
// parameterizes with (Ho, om, flat): a matter + curvature (+ optionally
// lambda, when flat) universe. It converts a galaxy's redshift into the
// angular and luminosity distances needed to turn pixel measurements into
// physical surface brightness and sizes.
type Cosmology struct {
	H0     float64 // Hubble constant, km/s/Mpc
	OmegaM float64 // matter density parameter
	Flat   bool    // if true, OmegaLambda = 1 - OmegaM; else open, no lambda
}

// speedOfLight in km/s.
const speedOfLight = 299792.458

// ErrBadCosmology reports unphysical parameters.
var ErrBadCosmology = errors.New("morphology: bad cosmology parameters")

// Validate checks the parameters.
func (c Cosmology) Validate() error {
	if c.H0 <= 0 || c.OmegaM < 0 {
		return ErrBadCosmology
	}
	return nil
}

// omegaLambda returns the dark-energy density parameter implied by Flat.
func (c Cosmology) omegaLambda() float64 {
	if c.Flat {
		return 1 - c.OmegaM
	}
	return 0
}

// omegaK returns the curvature density parameter.
func (c Cosmology) omegaK() float64 {
	return 1 - c.OmegaM - c.omegaLambda()
}

// ez is the dimensionless Hubble parameter E(z) = H(z)/H0.
func (c Cosmology) ez(z float64) float64 {
	zp := 1 + z
	return math.Sqrt(c.OmegaM*zp*zp*zp + c.omegaK()*zp*zp + c.omegaLambda())
}

// hubbleDistance is c/H0 in Mpc.
func (c Cosmology) hubbleDistance() float64 { return speedOfLight / c.H0 }

// ComovingDistance returns the line-of-sight comoving distance to redshift z
// in Mpc, by Simpson integration of dz/E(z).
func (c Cosmology) ComovingDistance(z float64) float64 {
	if z <= 0 {
		return 0
	}
	const steps = 512 // even
	h := z / steps
	sum := 1/c.ez(0) + 1/c.ez(z)
	for i := 1; i < steps; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4
		}
		sum += w / c.ez(float64(i)*h)
	}
	return c.hubbleDistance() * sum * h / 3
}

// transverseComovingDistance applies the curvature correction.
func (c Cosmology) transverseComovingDistance(z float64) float64 {
	dc := c.ComovingDistance(z)
	ok := c.omegaK()
	dh := c.hubbleDistance()
	switch {
	case math.Abs(ok) < 1e-9:
		return dc
	case ok > 0:
		s := math.Sqrt(ok)
		return dh / s * math.Sinh(s*dc/dh)
	default:
		s := math.Sqrt(-ok)
		return dh / s * math.Sin(s*dc/dh)
	}
}

// AngularDiameterDistance returns D_A(z) in Mpc.
func (c Cosmology) AngularDiameterDistance(z float64) float64 {
	if z <= 0 {
		return 0
	}
	return c.transverseComovingDistance(z) / (1 + z)
}

// LuminosityDistance returns D_L(z) in Mpc.
func (c Cosmology) LuminosityDistance(z float64) float64 {
	if z <= 0 {
		return 0
	}
	return c.transverseComovingDistance(z) * (1 + z)
}

// DistanceModulus returns m - M = 5 log10(D_L/10pc).
func (c Cosmology) DistanceModulus(z float64) float64 {
	return distanceModulus(c.LuminosityDistance(z))
}

// KpcPerArcsec returns the physical scale at redshift z in kpc/arcsec.
func (c Cosmology) KpcPerArcsec(z float64) float64 {
	return kpcPerArcsec(c.AngularDiameterDistance(z))
}

// scales returns DistanceModulus(z) and KpcPerArcsec(z), bit for bit, from
// one integration: both derive from the transverse comoving distance.
func (c Cosmology) scales(z float64) (mu, kpc float64) {
	if z <= 0 {
		return distanceModulus(0), kpcPerArcsec(0)
	}
	dm := c.transverseComovingDistance(z)
	return distanceModulus(dm * (1 + z)), kpcPerArcsec(dm / (1 + z))
}

// distanceModulus converts a luminosity distance in Mpc to m - M.
func distanceModulus(dl float64) float64 {
	if dl <= 0 {
		return 0
	}
	return 5 * math.Log10(dl*1e5) // Mpc -> 10pc units: 1 Mpc = 1e5 * 10pc
}

// kpcPerArcsec converts an angular diameter distance in Mpc to kpc/arcsec.
func kpcPerArcsec(da float64) float64 {
	// 1 arcsec in radians times D_A, converted Mpc -> kpc.
	return da * 1000 * (math.Pi / 180 / 3600)
}
