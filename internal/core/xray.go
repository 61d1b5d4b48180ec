package core

import (
	"errors"

	"repro/internal/fits"
	"repro/internal/votable"
	"repro/internal/wcs"
)

// This file completes §2's science model — "as a function of cluster
// radius, local density, and x-ray surface brightness": the third axis
// samples the cluster's X-ray map (the hot intracluster gas that marks the
// dynamical center) at each galaxy's position.

// XRayBin is one bin of the morphology–X-ray-brightness analysis.
type XRayBin struct {
	MeanBrightness float64 // X-ray counts at the member positions
	N              int
	MeanAsymmetry  float64
	EarlyFraction  float64
}

// ErrNoWCS reports an X-ray image without a usable projection.
var ErrNoWCS = errors.New("core: X-ray image carries no WCS")

// XRayBrightnessAt samples the X-ray image at each valid galaxy's position.
// Galaxies projecting outside the image read 0 (no detected emission).
func XRayBrightnessAt(xray *fits.Image, t *votable.Table, center wcs.SkyCoord) ([]float64, []galaxyPoint, error) {
	proj, ok := xray.WCS()
	if !ok {
		return nil, nil, ErrNoWCS
	}
	pts, err := extractPoints(t, center)
	if err != nil {
		return nil, nil, err
	}
	out := make([]float64, len(pts))
	for i, p := range pts {
		px, py, front := proj.SkyToPixel(p.pos)
		if !front {
			continue
		}
		out[i] = xray.At(int(px-1), int(py-1)) // WCS pixels are 1-based
	}
	return out, pts, nil
}

// DresslerXRayBins bins valid galaxies by the X-ray surface brightness at
// their positions (equal-count, ascending) and reports per-bin asymmetry
// and early-type fraction. Because the hot gas traces the cluster core, the
// early-type fraction rises toward high brightness.
func DresslerXRayBins(xray *fits.Image, t *votable.Table, center wcs.SkyCoord, nbins int) ([]XRayBin, error) {
	return equalCountBins(nbins, func() ([]float64, []galaxyPoint, error) { return XRayBrightnessAt(xray, t, center) },
		func(s binStats) XRayBin {
			return XRayBin{MeanBrightness: s.mean, N: s.n, MeanAsymmetry: s.asym, EarlyFraction: s.early}
		})
}

// AsymmetryXRayCorrelation returns the Spearman correlation between the
// X-ray surface brightness at the galaxy positions and their measured
// asymmetry (negative: bright X-ray cores host symmetric early types).
func AsymmetryXRayCorrelation(xray *fits.Image, t *votable.Table, center wcs.SkyCoord) (rho float64, n int, err error) {
	return asymmetryCorrelation(XRayBrightnessAt(xray, t, center))
}
