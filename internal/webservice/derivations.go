package webservice

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/vdl"
	"repro/internal/votable"
)

// derivations is the virtual data of one fresh request, held as the values it
// is made of: the galMorph and concatVOT transformations, one galMorph
// derivation per table row with the paper's parameter set, and the
// concatenating derivation producing the output VOTable. It is the one
// description both forms of the request are made from — the catalog Chimera
// composes from, built directly (catalog), and the .vdl file a journaled
// request persists for its resume (text) — so the two cannot say different
// things, and a galaxy id is always a value, never syntax.
//
// The paper's service writes the derivation file with an XSLT stylesheet and
// hands it to Chimera as a file because the two were separate programs; here
// they share a process, and rendering the text only to parse it back was the
// largest single cost of planning.
type derivations struct {
	cluster  string
	refs     []imageRef // per row: galaxy id and image access URL
	redshift []string   // per row: the z cell, "0" when blank
}

// newDerivations reads a request table, resolving its columns once, and
// admits only what VDL text can say: every derivation name must be one
// identifier to the VDL lexer and every redshift a value a string literal
// carries (the logical file names are an id or the cluster plus an extension,
// so they are literals whenever the names are identifiers). The catalog never
// sees text, but a journaled service writes it and a resume parses it, and
// both services must accept the same tables. A table that fails is refused
// with an error wrapping vdl.ErrParse before anything is admitted or fetched.
func newDerivations(tab *votable.Table, cluster string) (*derivations, error) {
	if tab == nil {
		return nil, ErrBadTable
	}
	idCol, acrefCol, zCol := tab.ColumnIndex("id"), tab.ColumnIndex("acref"), tab.ColumnIndex("z")
	if idCol < 0 || acrefCol < 0 {
		return nil, ErrBadTable
	}
	if tab.NumRows() == 0 {
		return nil, ErrNoGalaxies
	}
	if err := checkCluster(cluster); err != nil {
		return nil, err
	}
	d := &derivations{
		cluster:  cluster,
		refs:     make([]imageRef, tab.NumRows()),
		redshift: make([]string, tab.NumRows()),
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Fields) {
			return nil, fmt.Errorf("webservice: row %d: %w", i, votable.ErrRaggedRow)
		}
		id, z := row[idCol], "0"
		if zCol >= 0 && strings.TrimSpace(row[zCol]) != "" {
			z = row[zCol]
		}
		if !vdl.ValidName("m-" + id) {
			return nil, fmt.Errorf("webservice: row %d: galaxy id %q cannot name a derivation: %w", i, id, vdl.ErrParse)
		}
		if !vdl.ValidString(z) {
			return nil, fmt.Errorf("webservice: row %d: redshift %q cannot be written as VDL: %w", i, z, vdl.ErrParse)
		}
		d.refs[i] = imageRef{id: id, acref: row[acrefCol]}
		d.redshift[i] = z
	}
	return d, nil
}

// checkCluster admits a cluster name only if it can name the collector
// derivation: one VDL identifier, so also no path separator — a resumption
// joins the name into its artifact paths under JournalDir. Both fresh
// requests and resumptions pass here; a refusal wraps vdl.ErrParse.
func checkCluster(cluster string) error {
	if !vdl.ValidName("collect-" + cluster) {
		return fmt.Errorf("webservice: cluster %q cannot name a derivation: %w", cluster, vdl.ErrParse)
	}
	return nil
}

// actual is one name=value pair of a derivation, in the order the derivation
// file lists them.
type actual struct {
	name string
	vdl.Binding
}

// statements walks the derivation file in file order: the two TR statements,
// one galMorph DV per row, then the collector DV. The actuals slice is reused
// between calls.
func (d *derivations) statements(tr func(*vdl.Transformation) error,
	dv func(name, tr string, actuals []actual) error) error {

	n := len(d.refs)
	if err := tr(&vdl.Transformation{Name: "galMorph", Body: " compute CAS parameters ", Args: []vdl.Arg{
		{Name: "redshift", Dir: vdl.In}, {Name: "pixScale", Dir: vdl.In}, {Name: "zeroPoint", Dir: vdl.In},
		{Name: "Ho", Dir: vdl.In}, {Name: "om", Dir: vdl.In}, {Name: "flat", Dir: vdl.In},
		{Name: "image", Dir: vdl.In}, {Name: "galMorph", Dir: vdl.Out},
	}}); err != nil {
		return err
	}
	concat := &vdl.Transformation{Name: "concatVOT", Body: " concatenate per-galaxy results ",
		Args: make([]vdl.Arg, n+1)}
	for i := range d.refs {
		concat.Args[i] = vdl.Arg{Name: "p" + strconv.Itoa(i), Dir: vdl.In}
	}
	concat.Args[n] = vdl.Arg{Name: "table", Dir: vdl.Out}
	if err := tr(concat); err != nil {
		return err
	}

	// The collector's actuals are built as the rows go by: row i's result
	// file is both its derivation's output and the collector's i-th input.
	collect := make([]actual, n+1)
	var actuals [8]actual
	for i, r := range d.refs {
		result := vdl.FileBinding(vdl.Out, r.id+".txt")
		actuals = [8]actual{
			{"redshift", vdl.ScalarBinding(d.redshift[i])},
			{"image", vdl.FileBinding(vdl.In, r.id+".fit")},
			{"pixScale", vdl.ScalarBinding("2.831933107035062E-4")},
			{"zeroPoint", vdl.ScalarBinding("27.8")},
			{"Ho", vdl.ScalarBinding("100")},
			{"om", vdl.ScalarBinding("0.3")},
			{"flat", vdl.ScalarBinding("1")},
			{"galMorph", result},
		}
		if err := dv("m-"+r.id, "galMorph", actuals[:]); err != nil {
			return err
		}
		collect[i] = actual{concat.Args[i].Name, vdl.FileBinding(vdl.In, result.LFN)}
	}
	collect[n] = actual{"table", vdl.FileBinding(vdl.Out, outputLFN(d.cluster))}
	return dv("collect-"+d.cluster, "concatVOT", collect)
}

// catalog builds the request's virtual data catalog through the validators
// vdl.Parse ends in, so the catalog is the one parsing text would give.
func (d *derivations) catalog() (*vdl.Catalog, error) {
	cat := vdl.NewCatalog()
	err := d.statements(cat.AddTransformation, func(name, tr string, actuals []actual) error {
		bindings := make(map[string]vdl.Binding, len(actuals))
		for _, a := range actuals {
			bindings[a.name] = a.Binding
		}
		return cat.AddDerivation(&vdl.Derivation{Name: name, TR: tr, Bindings: bindings})
	})
	if err != nil {
		return nil, err
	}
	return cat, nil
}

// text renders the derivation file — the analog of the XSLT stylesheet's
// output, and the artifact a resumed leg parses.
func (d *derivations) text() string {
	var b strings.Builder
	_ = d.statements(func(tr *vdl.Transformation) error {
		b.WriteString(vdl.FormatTransformation(tr) + "\n")
		return nil
	}, func(name, tr string, actuals []actual) error {
		b.WriteString("DV " + name + "->" + tr + "( ")
		for i, a := range actuals {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.name + "=" + a.Binding.String())
		}
		b.WriteString(" );\n")
		return nil
	})
	return b.String()
}
