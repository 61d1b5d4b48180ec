// Package skysim synthesizes the sky the NVO prototype observed: rich galaxy
// clusters whose member galaxies follow a King-profile surface density and
// the Dressler (1980) morphology–density relation — ellipticals concentrated
// toward the cluster core, spirals in the outskirts — plus the optical survey
// plates, X-ray halos and per-galaxy cutout images the archives of the
// paper's Table 1 would have served.
//
// Everything is generated deterministically from a seed, so experiments are
// reproducible and the morphology pipeline's output can be validated against
// the generator's ground truth.
package skysim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/catalog"
	"repro/internal/wcs"
)

// GalaxyType is the intrinsic morphology class assigned by the generator.
type GalaxyType int

// Galaxy types, in decreasing order of symmetry.
const (
	Elliptical GalaxyType = iota
	Lenticular
	Spiral
	Irregular
)

// String returns the conventional Hubble-class label.
func (t GalaxyType) String() string {
	switch t {
	case Elliptical:
		return "E"
	case Lenticular:
		return "S0"
	case Spiral:
		return "Sp"
	case Irregular:
		return "Irr"
	default:
		return fmt.Sprintf("GalaxyType(%d)", int(t))
	}
}

// Galaxy is one simulated cluster member with both observable properties and
// the generator's ground truth.
type Galaxy struct {
	ID         string
	Pos        wcs.SkyCoord
	Type       GalaxyType // ground truth
	Mag        float64    // apparent magnitude
	ReArcsec   float64    // effective radius
	AxisRatio  float64    // minor/major, (0,1]
	PA         float64    // position angle, radians
	Lopside    float64    // m=1 asymmetric perturbation amplitude, [0,~0.5]
	ArmAmp     float64    // m=2 spiral-arm amplitude
	ClumpFrac  float64    // flux fraction in asymmetric star-forming clumps
	StructSeed int64      // deterministic seed for the clump realization
	// EWHalpha is the Hα equivalent width in Å — the spectral star-formation
	// indicator the paper's catalogs carry (§2's "star formation
	// indicators, both spectral and morphological"). Near zero for
	// quiescent early types, tens of Å for star-forming disks.
	EWHalpha  float64
	Redshift  float64
	RadiusDeg float64 // projected distance from the cluster center
}

// Cluster is a simulated rich galaxy cluster.
type Cluster struct {
	Name          string
	Center        wcs.SkyCoord
	Redshift      float64
	CoreRadiusDeg float64 // King-profile core radius
	Galaxies      []Galaxy
}

// Spec parameterizes cluster generation.
type Spec struct {
	Name          string
	Center        wcs.SkyCoord
	Redshift      float64
	NumGalaxies   int
	CoreRadiusDeg float64 // default 0.05
	MaxRadiusDeg  float64 // default 8 * core radius
	Seed          int64
}

// withDefaults fills unset Spec fields.
func (s Spec) withDefaults() Spec {
	if s.CoreRadiusDeg <= 0 {
		s.CoreRadiusDeg = 0.05
	}
	if s.MaxRadiusDeg <= 0 {
		s.MaxRadiusDeg = 8 * s.CoreRadiusDeg
	}
	if s.Redshift <= 0 {
		s.Redshift = 0.05
	}
	return s
}

// Morphology–density relation parameters: the elliptical (+S0) fraction
// decays from fracE0 at the center to fracEFloor far out, with scale
// fracScale core radii. These shape Figure 7's expected signal.
const (
	fracE0     = 0.75
	fracEFloor = 0.15
	fracScale  = 2.0
	fracS0     = 0.3 // portion of the "early type" budget that is S0
)

// earlyTypeFraction returns the probability that a galaxy at x = r/rc core
// radii is an early type (E or S0).
func earlyTypeFraction(x float64) float64 {
	return fracEFloor + (fracE0-fracEFloor)*math.Exp(-x/fracScale)
}

// Generate builds a cluster from a spec. Galaxies follow a projected King
// profile Σ(r) ∝ (1 + (r/rc)²)^(-1); morphology mixes follow the Dressler
// relation; luminosities follow a Schechter-like magnitude distribution.
func Generate(spec Spec) *Cluster {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))

	c := &Cluster{
		Name:          spec.Name,
		Center:        spec.Center,
		Redshift:      spec.Redshift,
		CoreRadiusDeg: spec.CoreRadiusDeg,
		Galaxies:      make([]Galaxy, 0, spec.NumGalaxies),
	}

	for i := 0; i < spec.NumGalaxies; i++ {
		r := sampleKingRadius(rng, spec.CoreRadiusDeg, spec.MaxRadiusDeg)
		pa := rng.Float64() * 360
		pos := spec.Center.Offset(pa, r)

		g := Galaxy{
			ID:        fmt.Sprintf("%s-%06d", spec.Name, i),
			Pos:       pos,
			Redshift:  spec.Redshift + rng.NormFloat64()*0.002, // velocity dispersion
			RadiusDeg: r,
		}
		assignMorphology(&g, r/spec.CoreRadiusDeg, rng)
		c.Galaxies = append(c.Galaxies, g)
	}
	return c
}

// sampleKingRadius draws a projected radius from the King surface-density
// profile Σ(r) ∝ (1+(r/rc)²)^(-1), truncated at rmax, by inverse-transform
// sampling of the enclosed-count function N(<r) ∝ ln(1+(r/rc)²).
func sampleKingRadius(rng *rand.Rand, rc, rmax float64) float64 {
	xmax := rmax / rc
	norm := math.Log(1 + xmax*xmax)
	u := rng.Float64()
	x := math.Sqrt(math.Exp(u*norm) - 1)
	return x * rc
}

// assignMorphology draws the galaxy's type from the morphology–density
// relation at x core radii and fills in the type-dependent structural
// parameters.
func assignMorphology(g *Galaxy, x float64, rng *rand.Rand) {
	fE := earlyTypeFraction(x)
	u := rng.Float64()
	switch {
	case u < fE*(1-fracS0):
		g.Type = Elliptical
	case u < fE:
		g.Type = Lenticular
	case u < fE+(1-fE)*0.85:
		g.Type = Spiral
	default:
		g.Type = Irregular
	}

	// Magnitudes: brighter toward the core (giant ellipticals), with a
	// Schechter-like spread. m* ≈ 16 at z≈0.05.
	g.Mag = 16 + rng.ExpFloat64()*1.2 + rng.NormFloat64()*0.5
	if g.Type == Elliptical {
		g.Mag -= 0.5
	}

	switch g.Type {
	case Elliptical:
		g.ReArcsec = 2 + rng.Float64()*3
		g.AxisRatio = 0.6 + rng.Float64()*0.4
		g.Lopside = rng.Float64() * 0.03
		g.ArmAmp = 0
		g.ClumpFrac = 0
	case Lenticular:
		g.ReArcsec = 2.5 + rng.Float64()*3
		g.AxisRatio = 0.4 + rng.Float64()*0.5
		g.Lopside = 0.02 + rng.Float64()*0.05
		g.ArmAmp = rng.Float64() * 0.05
		g.ClumpFrac = rng.Float64() * 0.03
	case Spiral:
		g.ReArcsec = 3 + rng.Float64()*4
		g.AxisRatio = 0.3 + rng.Float64()*0.6
		g.Lopside = 0.10 + rng.Float64()*0.25
		g.ArmAmp = 0.3 + rng.Float64()*0.4
		g.ClumpFrac = 0.20 + rng.Float64()*0.20
	case Irregular:
		g.ReArcsec = 2 + rng.Float64()*3
		g.AxisRatio = 0.4 + rng.Float64()*0.5
		g.Lopside = 0.30 + rng.Float64()*0.30
		g.ArmAmp = 0.1 + rng.Float64()*0.2
		g.ClumpFrac = 0.35 + rng.Float64()*0.25
	}
	g.PA = rng.Float64() * math.Pi
	g.StructSeed = rng.Int63()

	// Spectral star-formation indicator, correlated with type (and hence,
	// through the Dressler relation, anticorrelated with local density).
	switch g.Type {
	case Elliptical:
		g.EWHalpha = math.Abs(rng.NormFloat64()) * 0.5
	case Lenticular:
		g.EWHalpha = 1 + math.Abs(rng.NormFloat64())*2
	case Spiral:
		g.EWHalpha = 10 + rng.Float64()*30
	case Irregular:
		g.EWHalpha = 20 + rng.Float64()*40
	}
}

// Catalog exports the cluster members as a cone-searchable catalog with the
// property columns the NVO catalogs of the paper carry (magnitude, redshift,
// and — for validation only — the true type).
func (c *Cluster) Catalog() *catalog.Catalog {
	cat := catalog.New(c.Name, "mag", "z", "ew_halpha", "true_type")
	for _, g := range c.Galaxies {
		// IDs are unique by construction; ignore the impossible error.
		_ = cat.Add(catalog.Record{
			ID:  g.ID,
			Pos: g.Pos,
			Props: map[string]string{
				"mag":       fmt.Sprintf("%.2f", g.Mag),
				"z":         fmt.Sprintf("%.5f", g.Redshift),
				"ew_halpha": fmt.Sprintf("%.2f", g.EWHalpha),
				"true_type": g.Type.String(),
			},
		})
	}
	return cat
}

// Galaxy returns the member with the given ID. Generate names member i
// "<cluster>-%06d", so the digits after the ID's last '-' are the index to
// look at.
func (c *Cluster) Galaxy(id string) (Galaxy, bool) {
	i := 0
	digits := id[strings.LastIndexByte(id, '-')+1:]
	for j := 0; j < len(digits) && i < len(c.Galaxies); j++ {
		if digits[j] < '0' || digits[j] > '9' {
			return Galaxy{}, false
		}
		i = i*10 + int(digits[j]-'0')
	}
	if i >= len(c.Galaxies) || c.Galaxies[i].ID != id {
		return Galaxy{}, false
	}
	return c.Galaxies[i], true
}

// EllipticalFractionByRadius bins members into nbins equal-width radial bins
// out to maxRadiusDeg and returns, per bin, the mid radius (in core radii)
// and the early-type fraction. This is the generator-side truth for the
// Dressler relation that Figure 7's analysis must rediscover.
func (c *Cluster) EllipticalFractionByRadius(nbins int, maxRadiusDeg float64) (mids, fracs []float64) {
	if nbins <= 0 {
		return nil, nil
	}
	counts := make([]int, nbins)
	early := make([]int, nbins)
	for _, g := range c.Galaxies {
		b := int(g.RadiusDeg / maxRadiusDeg * float64(nbins))
		if b < 0 || b >= nbins {
			continue
		}
		counts[b]++
		if g.Type == Elliptical || g.Type == Lenticular {
			early[b]++
		}
	}
	for b := 0; b < nbins; b++ {
		mid := (float64(b) + 0.5) * maxRadiusDeg / float64(nbins) / c.CoreRadiusDeg
		mids = append(mids, mid)
		if counts[b] == 0 {
			fracs = append(fracs, math.NaN())
		} else {
			fracs = append(fracs, float64(early[b])/float64(counts[b]))
		}
	}
	return mids, fracs
}

// StandardClusters returns the specs for the eight-cluster campaign of the
// paper's §5. Galaxy counts span the reported 37–561 range; positions are
// spread over the sky; seeds are fixed for reproducibility.
func StandardClusters() []Spec {
	counts := []int{37, 84, 112, 158, 203, 297, 414, 561}
	names := []string{"CL0024", "A0085", "A0754", "A1689", "A2029", "A2142", "A2256", "COMA"}
	specs := make([]Spec, len(counts))
	for i := range counts {
		specs[i] = Spec{
			Name:        names[i],
			Center:      wcs.New(15+40*float64(i), -30+12*float64(i)),
			Redshift:    0.02 + 0.01*float64(i),
			NumGalaxies: counts[i],
			Seed:        int64(1000 + i),
		}
	}
	return specs
}
