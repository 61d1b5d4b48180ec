package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"testing"

	"repro/internal/skysim"
	"repro/internal/votable"
	"repro/internal/wcs"
)

// goldenArchiveAnswers is the SHA-256 and length of every VOTable body the
// portal reads from the archives for the benchmark's SURVEY cluster (1,000
// galaxies, sky seed 77, testbed seed 5), and of the catalog it builds from
// them and submits. A paged series hashes its pages' bodies in order.
var goldenArchiveAnswers = []struct {
	name   string
	sha256 string
	bytes  int
}{
	{"ned /cone", "34d95c4e319b2ee136cc72cc087a4ea7c07c888e4735308ddfa0d482e7b96f66", 264975},
	{"ned /cone MAXREC=200", "6dbac1d4c967acd04ee1d7c711f7b3c38e304c58a24ac8fb87c98fadd12afe4b", 268481},
	{"mast /cone", "ee6a829cd700870cf99351d0dba2bfbb025aa9edc3f1591b15488b9547cc45fc", 264977},
	{"mast /cone MAXREC=200", "d46be3aa8342cf4b65be0bd24d6d44cc50e2859b01428d90ac9935ab2d748836", 268493},
	{"mast /siacut", "8c8edebc7b39092b54fee9dba671a1f079ad7e638ff5f042efd25807f59b6355", 315079},
	{"mast /siacut MAXREC=200", "d3fca360ef00fe2298b3550c1c768f92e5fc55b89578b5a09afa9ebefa64b671", 318885},
	{"mast /sia", "62f5b60fd6bc72a3b202dad054ce499c63e2560d591bf152b64c76744f66a6d7", 1337},
	{"submitted catalog", "22267896302c62e9080d4ec915dd3e6139195334bc09fc86ddb6eb1a344c5f31", 524786},
}

// TestArchiveAnswersGolden pins the bytes of the Cone Search and SIA answers
// and of the catalog the portal submits: the table codec and the archives'
// table builders may get cheaper, never different.
func TestArchiveAnswersGolden(t *testing.T) {
	tb, err := NewTestbed(Config{
		ClusterSpecs: []skysim.Spec{{
			Name: "SURVEY", Center: wcs.New(150, 2), Redshift: 0.04,
			NumGalaxies: 1000, Seed: 77,
		}},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := tb.Clusters[0]
	sr := 8*c.CoreRadiusDeg + 0.01
	ra, dec := votable.FormatFloat(c.Center.RA), votable.FormatFloat(c.Center.Dec)
	cone := "RA=" + url.QueryEscape(ra) + "&DEC=" + url.QueryEscape(dec) + "&SR=" + url.QueryEscape(votable.FormatFloat(sr))
	pos := "POS=" + url.QueryEscape(ra) + "," + url.QueryEscape(dec) + "&SIZE=" + url.QueryEscape(votable.FormatFloat(2*sr))

	// answers fetches u, in pages of 200 rows when paged, and returns the
	// bodies back to back.
	answers := func(u string, paged bool) []byte {
		t.Helper()
		var all []byte
		for offset := 0; ; offset += 200 {
			pageURL := u
			if paged {
				pageURL = fmt.Sprintf("%s&MAXREC=200&OFFSET=%d", u, offset)
			}
			resp, err := tb.Client.Get(pageURL)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d, %v", pageURL, resp.StatusCode, err)
			}
			all = append(all, body...)
			if !paged {
				return all
			}
			page, err := votable.ReadTable(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if page.NumRows() < 200 {
				return all
			}
		}
	}
	cat, err := tb.Portal.BuildCatalog("SURVEY")
	if err != nil {
		t.Fatal(err)
	}
	var submitted bytes.Buffer
	if err := votable.WriteTable(&submitted, cat); err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{
		answers("http://"+HostNED+"/cone?"+cone, false),
		answers("http://"+HostNED+"/cone?"+cone, true),
		answers("http://"+HostMAST+"/cone?"+cone, false),
		answers("http://"+HostMAST+"/cone?"+cone, true),
		answers("http://"+HostMAST+"/siacut?"+pos, false),
		answers("http://"+HostMAST+"/siacut?"+pos, true),
		answers("http://"+HostMAST+"/sia?"+pos, false),
		submitted.Bytes(),
	}
	for i, want := range goldenArchiveAnswers {
		sum := sha256.Sum256(bodies[i])
		if got := hex.EncodeToString(sum[:]); got != want.sha256 || len(bodies[i]) != want.bytes {
			t.Errorf("%s: sha256 %s over %d bytes, want %s over %d", want.name, got, len(bodies[i]), want.sha256, want.bytes)
		}
	}
}
