package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/votable"
	"repro/internal/wcs"
)

// EarlyTypeAsymmetryMax is the asymmetry threshold separating early types
// (E/S0, symmetric) from late types (spirals/irregulars) in the computed
// parameters. Conselice 2003 places the boundary near A ≈ 0.1; our
// noise-corrected estimator reads systematically low (measured E/S0 stay
// below ~0.03, spirals average ~0.11), so the discriminating threshold
// sits between the two populations.
const EarlyTypeAsymmetryMax = 0.05

// RadialBin is one bin of the morphology–radius analysis behind Figure 7.
type RadialBin struct {
	MidRadiusDeg      float64
	N                 int
	MeanAsymmetry     float64
	MeanConcentration float64
	// EarlyFraction is the fraction of galaxies classified E/S0 by their
	// measured asymmetry.
	EarlyFraction float64
}

// Errors returned by the analysis helpers.
var (
	ErrMissingColumns = errors.New("core: table lacks required columns")
	ErrNoValidRows    = errors.New("core: no valid measured galaxies")
)

// galaxyPoint is one valid measured galaxy.
type galaxyPoint struct {
	pos    wcs.SkyCoord
	radius float64
	asym   float64
	conc   float64
}

// extractPoints pulls (radius, asymmetry, concentration) for every valid row.
func extractPoints(t *votable.Table, center wcs.SkyCoord) ([]galaxyPoint, error) {
	for _, col := range []string{"ra", "dec", "asymmetry", "concentration", "valid"} {
		if t.ColumnIndex(col) < 0 {
			return nil, fmt.Errorf("%w: %q", ErrMissingColumns, col)
		}
	}
	var pts []galaxyPoint
	for i := 0; i < t.NumRows(); i++ {
		if v, ok := t.Bool(i, "valid"); !ok || !v {
			continue
		}
		ra, ok1 := t.Float(i, "ra")
		dec, ok2 := t.Float(i, "dec")
		asym, ok3 := t.Float(i, "asymmetry")
		conc, ok4 := t.Float(i, "concentration")
		if !ok1 || !ok2 || !ok3 || !ok4 {
			continue
		}
		pos := wcs.New(ra, dec)
		pts = append(pts, galaxyPoint{
			pos:    pos,
			radius: center.Separation(pos),
			asym:   asym,
			conc:   conc,
		})
	}
	if len(pts) == 0 {
		return nil, ErrNoValidRows
	}
	return pts, nil
}

// radii returns the cluster-centric radius of every valid galaxy, and the
// galaxies.
func radii(t *votable.Table, center wcs.SkyCoord) ([]float64, []galaxyPoint, error) {
	pts, err := extractPoints(t, center)
	if err != nil {
		return nil, nil, err
	}
	rs := make([]float64, len(pts))
	for i, p := range pts {
		rs[i] = p.radius
	}
	return rs, pts, nil
}

// binStats is what one equal-count bin knows: the mean of the axis value it
// was cut along, its galaxy count, their mean asymmetry and concentration,
// and the fraction of them classified E/S0 by asymmetry.
type binStats struct {
	mean  float64
	n     int
	asym  float64
	conc  float64
	early float64
}

// equalCountBins is the body of the Dressler binnings. It refuses nbins <=
// 0, reads every valid galaxy's value on the axis, orders the galaxies by it
// (an index permutation, the one sorting the galaxies themselves gives),
// cuts them into nbins equal-count bins, the last taking the remainder, and
// makes each bin from its statistics, summed in axis order.
func equalCountBins[B any](nbins int, axis func() ([]float64, []galaxyPoint, error), bin func(binStats) B) ([]B, error) {
	if nbins <= 0 {
		return nil, errors.New("core: nbins must be positive")
	}
	vals, pts, err := axis()
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })

	nbins = min(nbins, len(pts))
	per := len(pts) / nbins
	bins := make([]B, nbins)
	for b := range bins {
		lo, hi := b*per, (b+1)*per
		if b == nbins-1 {
			hi = len(pts)
		}
		early := 0
		var sumV, sumA, sumC float64
		for _, i := range idx[lo:hi] {
			sumV += vals[i]
			sumA += pts[i].asym
			sumC += pts[i].conc
			if pts[i].asym < EarlyTypeAsymmetryMax {
				early++
			}
		}
		n := float64(hi - lo)
		bins[b] = bin(binStats{mean: sumV / n, n: hi - lo, asym: sumA / n, conc: sumC / n, early: float64(early) / n})
	}
	return bins, nil
}

// asymmetryCorrelation returns the Spearman rank correlation of the axis
// values against the galaxies' asymmetry, and the number of galaxies.
func asymmetryCorrelation(vals []float64, pts []galaxyPoint, err error) (rho float64, n int, _ error) {
	if err != nil {
		return 0, 0, err
	}
	asym := make([]float64, len(pts))
	for i, p := range pts {
		asym[i] = p.asym
	}
	return Spearman(vals, asym), len(pts), nil
}

// DresslerBins bins the valid galaxies of a merged morphology table into
// nbins equal-count radial bins about the cluster center and returns the
// per-bin asymmetry, concentration and early-type fraction. Rising mean
// asymmetry (falling early-type fraction) with radius is the
// morphology–density relation the paper "rediscovers" in Figure 7.
func DresslerBins(t *votable.Table, center wcs.SkyCoord, nbins int) ([]RadialBin, error) {
	return equalCountBins(nbins, func() ([]float64, []galaxyPoint, error) { return radii(t, center) },
		func(s binStats) RadialBin {
			return RadialBin{MidRadiusDeg: s.mean, N: s.n, MeanAsymmetry: s.asym, MeanConcentration: s.conc, EarlyFraction: s.early}
		})
}

// AsymmetryRadiusCorrelation returns the Spearman rank correlation between
// measured asymmetry and cluster-centric radius over the valid galaxies —
// the single-number summary of Figure 7 (positive: spirals live outside).
func AsymmetryRadiusCorrelation(t *votable.Table, center wcs.SkyCoord) (rho float64, n int, err error) {
	return asymmetryCorrelation(radii(t, center))
}

// SpectralMorphologicalCorrelation correlates the catalog's spectral
// star-formation indicator (the ew_halpha column the Cone Search services
// deliver) with the Grid-computed asymmetry over the valid galaxies — the
// §2 science model's cross-check that "star formation indicators, both
// spectral and morphological" trace the same physics (expected strongly
// positive).
func SpectralMorphologicalCorrelation(t *votable.Table) (rho float64, n int, err error) {
	for _, col := range []string{"ew_halpha", "asymmetry", "valid"} {
		if t.ColumnIndex(col) < 0 {
			return 0, 0, fmt.Errorf("%w: %q", ErrMissingColumns, col)
		}
	}
	var ew, asym []float64
	for i := 0; i < t.NumRows(); i++ {
		if v, ok := t.Bool(i, "valid"); !ok || !v {
			continue
		}
		e, ok1 := t.Float(i, "ew_halpha")
		a, ok2 := t.Float(i, "asymmetry")
		if !ok1 || !ok2 {
			continue
		}
		ew = append(ew, e)
		asym = append(asym, a)
	}
	if len(ew) == 0 {
		return 0, 0, ErrNoValidRows
	}
	return Spearman(ew, asym), len(ew), nil
}

// Spearman computes the Spearman rank-correlation coefficient of two equal
// length samples (ties receive mean ranks). Returns 0 for degenerate input.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	rx := ranks(x)
	ry := ranks(y)
	return pearson(rx, ry)
}

// ranks assigns mean ranks to values.
func ranks(v []float64) []float64 {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	r := make([]float64, len(v))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && v[idx[j]] == v[idx[i]] {
			j++
		}
		mean := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			r[idx[k]] = mean
		}
		i = j
	}
	return r
}

// pearson computes the Pearson correlation coefficient.
func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx := sx / n
	my := sy / n
	var cov, vx, vy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
