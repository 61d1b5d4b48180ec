package services

import (
	"math"
	"net/http"
	"net/url"
	"testing"

	"repro/internal/wcs"
)

// FuzzArchiveQuery: the cone and SIA query parsers never panic, and every
// query they accept names a finite RA, a Dec in [-90, 90] and a finite
// search radius or image size of at least zero.
func FuzzArchiveQuery(f *testing.F) {
	f.Add("RA=195&DEC=28&SR=0.5&POS=195,28&SIZE=0.1")
	f.Add("RA=0&DEC=NaN&SR=1&POS=1,nan&SIZE=1")
	f.Add("RA=Inf&DEC=0&SR=%2BInf&POS=-Inf,2&SIZE=%2BInf")
	f.Add("RA=1e400&DEC=-90&SR=0&POS=1e308,90&SIZE=-0")
	f.Add("POS=1,2,3&SIZE=0x1p-2&RA=+1_0&DEC=.5&SR=5.")
	f.Fuzz(func(t *testing.T, query string) {
		req := &http.Request{URL: &url.URL{RawQuery: query}}
		for name, parse := range map[string]func(*http.Request) (wcs.SkyCoord, float64, error){
			"parseRADecSR": parseRADecSR, "parsePosSize": parsePosSize,
		} {
			pos, extent, err := parse(req)
			if err != nil {
				continue
			}
			if math.IsNaN(pos.RA) || math.IsInf(pos.RA, 0) || !(pos.Dec >= -90 && pos.Dec <= 90) ||
				!(extent >= 0) || math.IsInf(extent, 0) {
				t.Fatalf("%s(%q) accepted RA %v, Dec %v, extent %v", name, query, pos.RA, pos.Dec, extent)
			}
		}
	})
}
