// Package visual stands in for the visualization tools the paper used on
// the returned VOTables — Aladin (sky overlay of the morphology parameters,
// Figure 7) and Mirage (scatter plots of parameter correlations). It renders
// an ASCII sky map for terminal output and exports tables to the
// tab-separated Mirage-native format, the way the paper's XSL stylesheet
// converted VOTables for Mirage.
package visual

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/votable"
	"repro/internal/wcs"
)

// Glyphs for the asymmetry classes on the sky map, from most symmetric
// (ellipticals, concentrated in the core per Figure 7) to most asymmetric.
const (
	GlyphEarly   = 'E' // A < 0.05: elliptical-like
	GlyphMid     = 'o' // 0.05 <= A < 0.1
	GlyphLate    = 's' // 0.1 <= A < 0.2: spiral-like
	GlyphVeryAsy = '*' // A >= 0.2
	GlyphInvalid = '.'
)

// glyphFor classifies a galaxy's asymmetry.
func glyphFor(asym float64, valid bool) rune {
	switch {
	case !valid:
		return GlyphInvalid
	case asym < 0.05:
		return GlyphEarly
	case asym < 0.1:
		return GlyphMid
	case asym < 0.2:
		return GlyphLate
	default:
		return GlyphVeryAsy
	}
}

// ErrBadTable reports a table without the needed columns.
var ErrBadTable = errors.New("visual: table lacks ra/dec/asymmetry/valid columns")

// SkyMap renders the cluster's galaxies on a w×h character grid centered on
// center and spanning 2×radiusDeg on each axis, each galaxy drawn with its
// asymmetry-class glyph. It is the ASCII analog of Figure 7's Aladin overlay:
// 'E' glyphs crowd the center, 's'/'*' scatter outside.
func SkyMap(t *votable.Table, center wcs.SkyCoord, radiusDeg float64, w, h int) (string, error) {
	if t.ColumnIndex("ra") < 0 || t.ColumnIndex("dec") < 0 ||
		t.ColumnIndex("asymmetry") < 0 || t.ColumnIndex("valid") < 0 {
		return "", ErrBadTable
	}
	if w < 8 || h < 4 {
		return "", errors.New("visual: map too small")
	}
	grid := make([][]rune, h)
	for y := range grid {
		grid[y] = make([]rune, w)
		for x := range grid[y] {
			grid[y][x] = ' '
		}
	}
	cosDec := math.Cos(center.Dec * wcs.Deg2Rad)
	for i := 0; i < t.NumRows(); i++ {
		ra, ok1 := t.Float(i, "ra")
		dec, ok2 := t.Float(i, "dec")
		if !ok1 || !ok2 {
			continue
		}
		dx := (ra - center.RA) * cosDec // flat-sky offsets suffice at map scale
		if dx > 180 {
			dx -= 360
		}
		if dx < -180 {
			dx += 360
		}
		dy := dec - center.Dec
		// RA increases to the left on sky charts.
		px := int((0.5 - dx/(2*radiusDeg)) * float64(w-1))
		py := int((0.5 - dy/(2*radiusDeg)) * float64(h-1))
		if px < 0 || px >= w || py < 0 || py >= h {
			continue
		}
		asym, _ := t.Float(i, "asymmetry")
		valid, _ := t.Bool(i, "valid")
		grid[py][px] = glyphFor(asym, valid)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Sky map %.3f deg across, centered on %s\n", 2*radiusDeg, center)
	b.WriteString("+" + strings.Repeat("-", w) + "+\n")
	for _, row := range grid {
		b.WriteString("|")
		b.WriteString(string(row))
		b.WriteString("|\n")
	}
	b.WriteString("+" + strings.Repeat("-", w) + "+\n")
	fmt.Fprintf(&b, "legend: %c A<0.05  %c A<0.1  %c A<0.2  %c A>=0.2  %c invalid\n",
		GlyphEarly, GlyphMid, GlyphLate, GlyphVeryAsy, GlyphInvalid)
	return b.String(), nil
}

// ToMirage renders a table in the tab-separated format IBM Mirage ingests
// (a "format" header line naming the columns, then one row per line) —
// what the paper's XSL stylesheet produced.
func ToMirage(t *votable.Table) string {
	var b strings.Builder
	b.WriteString("format ")
	for i, f := range t.Fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strings.ReplaceAll(f.Name, " ", "_"))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			if i > 0 {
				b.WriteByte('\t')
			}
			if cell == "" {
				cell = "NaN" // Mirage needs a placeholder in numeric columns
			}
			b.WriteString(strings.ReplaceAll(cell, "\t", " "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
