package webservice

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/skysim"
	"repro/internal/vdl"
	"repro/internal/votable"
	"repro/internal/wcs"
)

// frozenBuildVDL is buildVDL as it stood at 8fbfcb3, when the service rendered
// this text for every request and parsed it straight back: the reference for
// the bytes of the .vdl file. It prints the id with %s, so it is only a
// reference for tables newDerivations admits.
func frozenBuildVDL(tab *votable.Table, cluster string) string {
	var b strings.Builder
	b.WriteString("TR galMorph( in redshift, in pixScale, in zeroPoint, in Ho, in om, in flat, in image, out galMorph ) { compute CAS parameters }\n")

	n := tab.NumRows()
	b.WriteString("TR concatVOT( ")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "in p%d, ", i)
	}
	b.WriteString("out table ) { concatenate per-galaxy results }\n")

	for i := 0; i < n; i++ {
		id := tab.Cell(i, "id")
		z := tab.Cell(i, "z")
		if strings.TrimSpace(z) == "" {
			z = "0"
		}
		fmt.Fprintf(&b,
			"DV m-%s->galMorph( redshift=%q, image=@{in:%q}, pixScale=\"2.831933107035062E-4\", zeroPoint=\"27.8\", Ho=\"100\", om=\"0.3\", flat=\"1\", galMorph=@{out:%q} );\n",
			id, z, id+".fit", id+".txt")
	}

	fmt.Fprintf(&b, "DV collect-%s->concatVOT( ", cluster)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "p%d=@{in:%q}, ", i, tab.Cell(i, "id")+".txt")
	}
	fmt.Fprintf(&b, "table=@{out:%q} );\n", outputLFN(cluster))
	return b.String()
}

// requestTable builds an (id, acref, z) request table from (id, z) pairs.
func requestTable(t testing.TB, rows ...[2]string) *votable.Table {
	t.Helper()
	tab := votable.NewTable("in",
		votable.Field{Name: "id", Datatype: votable.TypeChar},
		votable.Field{Name: "acref", Datatype: votable.TypeChar},
		votable.Field{Name: "z", Datatype: votable.TypeDouble},
	)
	for _, r := range rows {
		if err := tab.AppendRow(r[0], "http://archive.test/cutout?id="+r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// checkBothForms holds the planning contract for one admitted table: the
// rendered text is the file the frozen renderer wrote, and the catalog built
// directly is the catalog parsing that text gives.
func checkBothForms(t testing.TB, tab *votable.Table, cluster string) {
	t.Helper()
	dvs, err := newDerivations(tab, cluster)
	if err != nil {
		t.Fatal(err)
	}
	text := dvs.text()
	if want := frozenBuildVDL(tab, cluster); text != want {
		t.Fatalf("rendered .vdl differs from the frozen renderer's\n got %q\nwant %q", text, want)
	}
	direct, directErr := dvs.catalog()
	parsed, parsedErr := vdl.Parse(text)
	if (directErr == nil) != (parsedErr == nil) {
		t.Fatalf("direct build: %v; parse of the rendered text: %v", directErr, parsedErr)
	}
	if directErr != nil {
		if !errors.Is(directErr, vdl.ErrDuplicate) || !errors.Is(parsedErr, vdl.ErrDuplicate) {
			t.Fatalf("an admitted table can only fail on a duplicate id: direct %v, parsed %v", directErr, parsedErr)
		}
		return
	}
	if !reflect.DeepEqual(direct, parsed) {
		t.Fatalf("catalog built directly differs from the parse of its own text\n%s", text)
	}
	if n := len(direct.Derivations()); n != tab.NumRows()+1 {
		t.Fatalf("%d derivations for %d rows", n, tab.NumRows())
	}
}

// TestCatalogMatchesVDLText: for the 1,000-galaxy survey table of the
// benchmark (seed 5) and a table of edge cases, building the catalog from the
// derivations and parsing their rendered text are the same function.
func TestCatalogMatchesVDLText(t *testing.T) {
	survey := skysim.Generate(skysim.Spec{
		Name: "SURVEY", Center: wcs.New(150, 2), Redshift: 0.04, NumGalaxies: 1000, Seed: 5 + 72,
	})
	var rows [][2]string
	for _, g := range survey.Galaxies {
		rows = append(rows, [2]string{g.ID, votable.FormatFloat(g.Redshift)})
	}
	checkBothForms(t, requestTable(t, rows...), "SURVEY")

	checkBothForms(t, requestTable(t,
		[2]string{"NGP9_F323-0927589", "0.027886"},
		[2]string{"blank.z", ""}, [2]string{"space_z", "  \t"},
		[2]string{"a.b-c_d", "1e-3"}, [2]string{"ends-in-dash-", "0.5"}, [2]string{"-", "0"}, [2]string{"", "0"},
		[2]string{"galáxia", "0.1"}, [2]string{"銀河-7", "0.2"},
		[2]string{"quoted_z", `0.3 "approx" \ two`}, [2]string{"multiline_z", "0.4\n\t0.5"}, [2]string{"z_é", "≈0.6"},
	), "A1656.core-2")

	// Duplicate ids are admitted (each name is valid) and fail identically
	// when the catalog is built, whichever way it is built.
	dup := requestTable(t, [2]string{"G1", "0.1"}, [2]string{"G2", "0.2"}, [2]string{"G1", "0.3"})
	checkBothForms(t, dup, "DUP")
	dvs, err := newDerivations(dup, "DUP")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dvs.catalog(); !errors.Is(err, vdl.ErrDuplicate) {
		t.Fatalf("duplicate id: err = %v, want ErrDuplicate", err)
	}
}

// hostileID closes the galMorph derivation it is printed into and opens two
// more: rendered with %s it parsed cleanly into five derivations for three
// rows, one of them claiming to produce stolen.txt.
const hostileID = `x->galMorph( redshift="9", image=@{in:"G000000.fit"}, pixScale="1", zeroPoint="1", Ho="1", om="1", flat="1", galMorph=@{out:"stolen.txt"} ); DV m-y`

// TestHostileTablesRefused: what is not a name or a string to the VDL lexer
// is refused at admission with vdl.ErrParse, by every entry point, before
// anything is fetched — and over HTTP with a 400, not an accepted request
// that fails later.
func TestHostileTablesRefused(t *testing.T) {
	// The reason the check exists: the frozen renderer turns this table into
	// text that parses — into the wrong catalog.
	hostile := requestTable(t, [2]string{"G000000", "0.1"}, [2]string{hostileID, "0.2"}, [2]string{"G000002", "0.3"})
	injected, err := vdl.Parse(frozenBuildVDL(hostile, "COMA"))
	if err != nil || len(injected.Derivations()) != 5 || len(injected.Producers("stolen.txt")) != 1 {
		t.Fatalf("the hostile id no longer injects derivations into %%s-rendered text: %v", err)
	}

	for name, tc := range map[string]struct {
		tab     *votable.Table
		cluster string
	}{
		"id that is VDL syntax":    {hostile, "COMA"},
		"id with a space":          {requestTable(t, [2]string{"G 1", "0"}), "COMA"},
		"id with an arrow":         {requestTable(t, [2]string{"a->b", "0"}), "COMA"},
		"id with a quote":          {requestTable(t, [2]string{`G"1`, "0"}), "COMA"},
		"id that is not UTF-8":     {requestTable(t, [2]string{"G\xff1", "0"}), "COMA"},
		"redshift with a control":  {requestTable(t, [2]string{"G1", "0.1\x00"}), "COMA"},
		"redshift with a CR":       {requestTable(t, [2]string{"G1", "0.1\r"}), "COMA"},
		"redshift that is not UTF": {requestTable(t, [2]string{"G1", "0.1\xc3"}), "COMA"},
		"cluster with a semicolon": {requestTable(t, [2]string{"G1", "0"}), "COMA;DV"},
	} {
		if _, err := newDerivations(tc.tab, tc.cluster); !errors.Is(err, vdl.ErrParse) {
			t.Errorf("%s: err = %v, want vdl.ErrParse", name, err)
		}
	}

	h := newHarness(t, 3, nil)
	for _, jd := range []string{"", t.TempDir()} {
		h.svc.cfg.JournalDir = jd
		_, stats, err := h.svc.Compute(hostile, "COMA")
		if !errors.Is(err, vdl.ErrParse) {
			t.Fatalf("JournalDir %q: Compute err = %v, want vdl.ErrParse", jd, err)
		}
		if stats.ImagesFetched != 0 || h.r.Len() != 0 {
			t.Fatalf("JournalDir %q: a refused table fetched %d images and registered %d files", jd, stats.ImagesFetched, h.r.Len())
		}
		if _, err := submit(h.svc, hostile, "COMA"); !errors.Is(err, vdl.ErrParse) {
			t.Fatalf("JournalDir %q: SubmitFor err = %v, want vdl.ErrParse", jd, err)
		}
	}

	srv := httptest.NewServer(h.svc.Handler())
	defer srv.Close()
	var body strings.Builder
	if err := votable.WriteTable(&body, hostile); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/galmorph?cluster=COMA", "text/xml", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	if msg := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "cannot name a derivation") {
		t.Fatalf("POST /galmorph with the hostile id: status %d, body %q; want 400 naming the id", resp.StatusCode, msg)
	}
	if st := h.svc.Stats(); st.Requests != 0 {
		t.Fatalf("the refused upload became a request: %+v", st)
	}
}

// FuzzCatalogMatchesVDLText: for any id, redshift and cluster name, either the
// table is admitted and both forms agree (and the text is the frozen
// renderer's), or it is refused with vdl.ErrParse and the frozen text of the
// same table does not describe the request either.
func FuzzCatalogMatchesVDLText(f *testing.F) {
	f.Add("NGP9_F323-0927589", "0.027886", "COMA")
	f.Add("a.b-c_d-", "", "A1656.core-2")
	f.Add("galáxia", "≈0.6\n", "銀河")
	f.Add(hostileID, "0.2", "COMA")
	f.Add("G1", "0.1\x00", "COMA")
	f.Add("G\xff", "\xc3", "C;D")
	f.Add("", `"\`, "")
	f.Fuzz(func(t *testing.T, id, z, cluster string) {
		tab := requestTable(t, [2]string{"G0", "0.5"}, [2]string{id, z})
		_, err := newDerivations(tab, cluster)
		if err == nil {
			checkBothForms(t, tab, cluster)
			return
		}
		if !errors.Is(err, vdl.ErrParse) {
			t.Fatalf("refused with %v, want an error wrapping vdl.ErrParse", err)
		}
		cat, err := vdl.Parse(frozenBuildVDL(tab, cluster))
		if err != nil {
			return
		}
		m, okM := cat.Derivation("m-" + id)
		c, okC := cat.Derivation("collect-" + cluster)
		if len(cat.Derivations()) == 3 && okM && okC &&
			m.Bindings["image"].LFN == id+".fit" && c.Bindings["table"].LFN == outputLFN(cluster) {
			z0 := z
			if strings.TrimSpace(z0) == "" {
				z0 = "0"
			}
			if m.Bindings["redshift"].Value == z0 {
				t.Fatalf("id %q z %q cluster %q refused, yet the text form says exactly this request", id, z, cluster)
			}
		}
	})
}
