package core

import (
	"errors"
	"math"
	"sort"

	"repro/internal/votable"
	"repro/internal/wcs"
)

// This file implements the morphology–density axis of the paper's science
// model ("Our science model examines the distribution of star formation
// indicators ... as a function of cluster radius, local density, and x-ray
// surface brightness", §2): Dressler 1980's original relation is against
// the local projected galaxy density, estimated with his Σ-estimator — the
// surface density implied by the distance to the k-th nearest neighbor.

// densityNeighbors is Dressler's k (he used the 10 nearest; k=5 is the
// small-sample variant appropriate for our cluster sizes).
const densityNeighbors = 5

// DensityBin is one bin of the morphology–density analysis.
type DensityBin struct {
	// MeanDensity is the mean Σ5 of the bin, galaxies per square degree.
	MeanDensity   float64
	N             int
	MeanAsymmetry float64
	EarlyFraction float64
}

// ErrTooFewGalaxies reports a sample too small for the density estimator.
var ErrTooFewGalaxies = errors.New("core: too few valid galaxies for local density")

// localDensities returns Σk for each point: k / (π · r_k²), with r_k the
// angular distance to the k-th nearest other valid galaxy.
func localDensities(pts []galaxyPoint, k int) ([]float64, error) {
	if len(pts) < k+1 {
		return nil, ErrTooFewGalaxies
	}
	out := make([]float64, len(pts))
	seps := make([]float64, 0, len(pts)-1)
	for i := range pts {
		seps = seps[:0]
		for j := range pts {
			if i == j {
				continue
			}
			seps = append(seps, pts[i].pos.Separation(pts[j].pos))
		}
		sort.Float64s(seps)
		rk := seps[k-1]
		if rk <= 0 {
			rk = 1e-6 // coincident positions: cap the density
		}
		out[i] = float64(k) / (math.Pi * rk * rk)
	}
	return out, nil
}

// densities returns the local density Σk of every valid galaxy, and the
// galaxies.
func densities(t *votable.Table, center wcs.SkyCoord) ([]float64, []galaxyPoint, error) {
	pts, err := extractPoints(t, center)
	if err != nil {
		return nil, nil, err
	}
	dens, err := localDensities(pts, densityNeighbors)
	return dens, pts, err
}

// DresslerDensityBins bins the valid galaxies by local projected density
// (equal-count bins, ascending density) and reports per-bin asymmetry and
// early-type fraction. Dressler's relation appears as the early-type
// fraction rising — and mean asymmetry falling — toward high density.
func DresslerDensityBins(t *votable.Table, center wcs.SkyCoord, nbins int) ([]DensityBin, error) {
	return equalCountBins(nbins, func() ([]float64, []galaxyPoint, error) { return densities(t, center) },
		func(s binStats) DensityBin {
			return DensityBin{MeanDensity: s.mean, N: s.n, MeanAsymmetry: s.asym, EarlyFraction: s.early}
		})
}

// AsymmetryDensityCorrelation returns the Spearman correlation between
// local density and measured asymmetry — Dressler's relation proper, which
// comes out negative (dense regions host symmetric early types).
func AsymmetryDensityCorrelation(t *votable.Table, center wcs.SkyCoord) (rho float64, n int, err error) {
	return asymmetryCorrelation(densities(t, center))
}
