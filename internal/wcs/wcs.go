// Package wcs implements the small amount of world-coordinate-system
// machinery the NVO prototype needs: equatorial sky coordinates, great-circle
// separations, gnomonic (tangent-plane) projection between sky and pixel
// coordinates, and sexagesimal parsing/formatting.
//
// Positions are J2000 equatorial: right ascension (RA) and declination (Dec)
// in decimal degrees. RA is normalized to [0, 360); Dec is clamped to
// [-90, +90]. The Cone Search and Simple Image Access protocols both select
// data by (RA, Dec, radius), so this package underpins every data service in
// the repository.
package wcs

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Deg2Rad converts degrees to radians.
const Deg2Rad = math.Pi / 180

// Rad2Deg converts radians to degrees.
const Rad2Deg = 180 / math.Pi

// SkyCoord is a position on the celestial sphere in decimal degrees (J2000).
type SkyCoord struct {
	RA  float64 // right ascension, degrees, [0, 360)
	Dec float64 // declination, degrees, [-90, +90]
}

// New returns a normalized SkyCoord: RA wrapped into [0,360) and Dec clamped
// to the poles.
func New(raDeg, decDeg float64) SkyCoord {
	return SkyCoord{RA: NormalizeRA(raDeg), Dec: ClampDec(decDeg)}
}

// NormalizeRA wraps a right ascension into [0, 360).
func NormalizeRA(ra float64) float64 {
	ra = math.Mod(ra, 360)
	if ra < 0 {
		ra += 360
	}
	return ra
}

// ClampDec limits a declination to the physical range [-90, +90].
func ClampDec(dec float64) float64 {
	if dec > 90 {
		return 90
	}
	if dec < -90 {
		return -90
	}
	return dec
}

// String renders the coordinate as "RA=10.68471 Dec=+41.26875".
func (c SkyCoord) String() string {
	return fmt.Sprintf("RA=%.5f Dec=%+.5f", c.RA, c.Dec)
}

// Separation returns the great-circle angular distance in degrees between c
// and o, computed with the Vincenty formula, which is numerically stable at
// all separations (haversine loses precision near antipodal points and the
// spherical law of cosines near zero).
func (c SkyCoord) Separation(o SkyCoord) float64 {
	a1 := c.RA * Deg2Rad
	d1 := c.Dec * Deg2Rad
	a2 := o.RA * Deg2Rad
	d2 := o.Dec * Deg2Rad
	dra := a2 - a1

	sd1, cd1 := math.Sincos(d1)
	sd2, cd2 := math.Sincos(d2)
	sdra, cdra := math.Sincos(dra)

	num := math.Hypot(cd2*sdra, cd1*sd2-sd1*cd2*cdra)
	den := sd1*sd2 + cd1*cd2*cdra
	return math.Atan2(num, den) * Rad2Deg
}

// PositionAngle returns the position angle (degrees east of north, [0,360))
// of o as seen from c.
func (c SkyCoord) PositionAngle(o SkyCoord) float64 {
	a1 := c.RA * Deg2Rad
	d1 := c.Dec * Deg2Rad
	a2 := o.RA * Deg2Rad
	d2 := o.Dec * Deg2Rad
	dra := a2 - a1
	y := math.Sin(dra) * math.Cos(d2)
	x := math.Cos(d1)*math.Sin(d2) - math.Sin(d1)*math.Cos(d2)*math.Cos(dra)
	pa := math.Atan2(y, x) * Rad2Deg
	if pa < 0 {
		pa += 360
	}
	return pa
}

// Offset returns the coordinate reached by moving sepDeg degrees from c along
// position angle paDeg (east of north). It inverts PositionAngle/Separation:
// for small, non-polar offsets, c.Offset(pa, sep) lies at separation sep and
// position angle pa from c.
func (c SkyCoord) Offset(paDeg, sepDeg float64) SkyCoord {
	d1 := c.Dec * Deg2Rad
	pa := paDeg * Deg2Rad
	sep := sepDeg * Deg2Rad

	sinD2 := math.Sin(d1)*math.Cos(sep) + math.Cos(d1)*math.Sin(sep)*math.Cos(pa)
	d2 := math.Asin(clamp(sinD2, -1, 1))
	y := math.Sin(pa) * math.Sin(sep) * math.Cos(d1)
	x := math.Cos(sep) - math.Sin(d1)*sinD2
	ra2 := c.RA + math.Atan2(y, x)*Rad2Deg
	return New(ra2, d2*Rad2Deg)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// TanProjection is a gnomonic (TAN) projection tying pixel coordinates to the
// sky, mirroring the FITS WCS keywords CRVAL1/2 (reference sky position),
// CRPIX1/2 (reference pixel, 1-based per FITS convention) and CDELT1/2
// (degrees per pixel; CDELT1 is conventionally negative because RA increases
// to the left).
type TanProjection struct {
	Center SkyCoord // CRVAL1, CRVAL2
	RefX   float64  // CRPIX1 (1-based)
	RefY   float64  // CRPIX2 (1-based)
	ScaleX float64  // CDELT1, degrees/pixel (typically negative)
	ScaleY float64  // CDELT2, degrees/pixel
}

// NewTanProjection builds a projection centered on center with the reference
// pixel at the middle of an nx-by-ny image and a square pixel scale of
// scaleDeg degrees/pixel (applied as -scaleDeg on the RA axis).
func NewTanProjection(center SkyCoord, nx, ny int, scaleDeg float64) TanProjection {
	return TanProjection{
		Center: center,
		RefX:   (float64(nx) + 1) / 2,
		RefY:   (float64(ny) + 1) / 2,
		ScaleX: -scaleDeg,
		ScaleY: scaleDeg,
	}
}

// SkyToPixel converts a sky position to 1-based pixel coordinates. The second
// return is false if the position is on the far hemisphere where the gnomonic
// projection diverges.
func (p TanProjection) SkyToPixel(c SkyCoord) (x, y float64, ok bool) {
	a0 := p.Center.RA * Deg2Rad
	d0 := p.Center.Dec * Deg2Rad
	a := c.RA * Deg2Rad
	d := c.Dec * Deg2Rad

	cosC := math.Sin(d0)*math.Sin(d) + math.Cos(d0)*math.Cos(d)*math.Cos(a-a0)
	if cosC <= 1e-12 {
		return 0, 0, false
	}
	xi := math.Cos(d) * math.Sin(a-a0) / cosC
	eta := (math.Cos(d0)*math.Sin(d) - math.Sin(d0)*math.Cos(d)*math.Cos(a-a0)) / cosC

	x = p.RefX + xi*Rad2Deg/p.ScaleX
	y = p.RefY + eta*Rad2Deg/p.ScaleY
	return x, y, true
}

// PixelToSky converts 1-based pixel coordinates back to the sky.
func (p TanProjection) PixelToSky(x, y float64) SkyCoord {
	xi := (x - p.RefX) * p.ScaleX * Deg2Rad
	eta := (y - p.RefY) * p.ScaleY * Deg2Rad

	a0 := p.Center.RA * Deg2Rad
	d0 := p.Center.Dec * Deg2Rad

	den := math.Cos(d0) - eta*math.Sin(d0)
	dra := math.Atan2(xi, den)
	a := a0 + dra
	d := math.Atan2((math.Sin(d0)+eta*math.Cos(d0))*math.Cos(dra), den)
	return New(a*Rad2Deg, d*Rad2Deg)
}

// FormatSexagesimal renders the coordinate as "HH:MM:SS.ss +DD:MM:SS.s",
// the form astronomical catalogs conventionally publish. Each value is
// rounded once, to its last printed digit, and split into fields after, so a
// rounding carries into the next field and no field prints as 60; an RA that
// rounds up to 24h prints as 00:00:00.00.
func (c SkyCoord) FormatSexagesimal() string {
	ra := int64(math.Round(c.RA/15*3600*100)) % (24 * 3600 * 100) // hundredths of a second of time
	h, m, s := ra/360000, ra/6000%60, float64(ra%6000)/100

	dec := c.Dec
	sign := "+"
	if dec < 0 {
		sign = "-"
		dec = -dec
	}
	tenths := int64(math.Round(dec * 3600 * 10)) // tenths of an arcsecond
	dd, dm, ds := tenths/36000, tenths/600%60, float64(tenths%600)/10

	return fmt.Sprintf("%02d:%02d:%05.2f %s%02d:%02d:%04.1f", h, m, s, sign, dd, dm, ds)
}

// ErrBadCoordinate reports an unparsable coordinate string.
var ErrBadCoordinate = errors.New("wcs: bad coordinate")

// ParseSexagesimal parses "HH:MM:SS.ss [+-]DD:MM:SS.s" (whitespace-separated)
// back into a SkyCoord. It tolerates missing fractional parts.
func ParseSexagesimal(s string) (SkyCoord, error) {
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) != 2 {
		return SkyCoord{}, fmt.Errorf("%w: %q (want two fields)", ErrBadCoordinate, s)
	}
	ra, err := parseHMS(fields[0], 15)
	if err != nil {
		return SkyCoord{}, fmt.Errorf("%w: RA %q: %v", ErrBadCoordinate, fields[0], err)
	}
	dec, err := parseHMS(fields[1], 1)
	if err != nil {
		return SkyCoord{}, fmt.Errorf("%w: Dec %q: %v", ErrBadCoordinate, fields[1], err)
	}
	if dec < -90 || dec > 90 {
		return SkyCoord{}, fmt.Errorf("%w: Dec %v out of range", ErrBadCoordinate, dec)
	}
	return New(ra, dec), nil
}

// parseHMS parses "A:B:C" with an optional sign and returns
// sign*(A + B/60 + C/3600)*unit.
func parseHMS(s string, unit float64) (float64, error) {
	sign := 1.0
	switch {
	case strings.HasPrefix(s, "-"):
		sign = -1
		s = s[1:]
	case strings.HasPrefix(s, "+"):
		s = s[1:]
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, fmt.Errorf("want 3 colon-separated parts, got %d", len(parts))
	}
	var vals [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return 0, err
		}
		if v < 0 {
			return 0, fmt.Errorf("negative component %q", p)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("non-finite component %q", p)
		}
		vals[i] = v
	}
	v := sign * (vals[0] + vals[1]/60 + vals[2]/3600) * unit
	if math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q overflows", s)
	}
	return v, nil
}
