package services

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/skysim"
	"repro/internal/wcs"
)

// surveySpec is the benchmark's SURVEY cluster at its default seed: 1,000
// galaxies, sky seed 77 (benchmark seed 5 + 72).
func surveySpec() skysim.Spec {
	return skysim.Spec{
		Name: "SURVEY", Center: wcs.New(150, 2), Redshift: 0.04,
		NumGalaxies: 1000, Seed: 77,
	}
}

// goldenSurveyCutouts is the SHA-256 of the CutoutFITS bytes of every SURVEY
// galaxy, concatenated in catalog order, and their total length. It was
// taken before the render kernel and the FITS encoder were rewritten; any
// change to a pixel bit or a header byte of any cutout moves it.
const (
	goldenSurveyCutouts     = "f311275bfbabfea3ec811f09819c069a1d40dbaaf6cac6aef951016f2eedbdec"
	goldenSurveyCutoutBytes = 15390720
)

// TestCutoutBytesGolden pins the archive's cutouts byte for byte: the
// render kernel and the encoder may get faster, never different.
func TestCutoutBytesGolden(t *testing.T) {
	c := skysim.Generate(surveySpec())
	a := NewArchive("golden", c)
	h := sha256.New()
	total := 0
	for _, g := range c.Galaxies {
		_, data, err := a.CutoutFITS(g.ID)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
		total += len(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSurveyCutouts || total != goldenSurveyCutoutBytes {
		t.Errorf("SURVEY cutouts: sha256 %s over %d bytes, want %s over %d", got, total, goldenSurveyCutouts, goldenSurveyCutoutBytes)
	}
}
