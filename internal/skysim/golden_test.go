package skysim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/wcs"
)

// goldenRenderBits is, per galaxy type, the SHA-256 of the float64 bits
// (little-endian) of RenderGalaxy for the first galaxy of that type in the
// benchmark's SURVEY cluster (sky seed 77), at every even size from 48 to
// 160 with noise seed = size, in size order. It was taken before the render
// kernel was rewritten: every pixel of every size must keep its bits.
var goldenRenderBits = []struct {
	typ  GalaxyType
	want string
}{
	{Elliptical, "4a3b409454a37330f680cb857037c9af240ecba96f1260f9b0c4dc75004f5491"}, // SURVEY-000010
	{Lenticular, "09ce53bf3bc061ba01a78a84f8a375acb2f16b7b4a8ff4104507ef29800bb114"}, // SURVEY-000002
	{Spiral, "338a38ed184524d5d6023b3f9c594edc2b191be1ecdb3ee59b9768902ead36fe"},     // SURVEY-000000
	{Irregular, "94d12fa7d30270515b651d20a87bf49d0e68fa11bd7d72cfeab5d79afb46e9d9"},  // SURVEY-000039
}

func TestRenderBitsGolden(t *testing.T) {
	c := Generate(Spec{Name: "SURVEY", Center: wcs.New(150, 2), Redshift: 0.04, NumGalaxies: 1000, Seed: 77})
	for _, gold := range goldenRenderBits {
		typ, want := gold.typ, gold.want
		i := firstOfType(c, typ)
		if i < 0 {
			t.Fatalf("no %v galaxy in the SURVEY cluster", typ)
		}
		h := sha256.New()
		var word [8]byte
		for size := 48; size <= 160; size += 2 {
			im := RenderGalaxy(c.Galaxies[i], size, int64(size))
			for _, v := range im.Data {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%v (%s): render bits sha256 %s, want %s", typ, c.Galaxies[i].ID, got, want)
		}
	}
}

// firstOfType returns the index of the first galaxy of type typ, or -1.
func firstOfType(c *Cluster, typ GalaxyType) int {
	for i, g := range c.Galaxies {
		if g.Type == typ {
			return i
		}
	}
	return -1
}
