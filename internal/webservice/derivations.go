package webservice

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/pegasus"
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
// both services must accept the same tables. It also admits only ids that
// name distinct plan nodes: no id twice, and no two ids with one Pegasus id
// fragment (G-1, G_1 and G.1 would all register as reg_G_1_txt). A table
// that fails is refused with an error wrapping vdl.ErrParse before anything
// is admitted or fetched.
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
	if err := checkDistinct(d.refs); err != nil {
		return nil, err
	}
	return d, nil
}

// checkDistinct refuses two rows whose ids name the same plan nodes: equal
// ids, or ids with one pegasus id fragment. It sorts row indices by fragment,
// so equal fragments are neighbours, and allocates once for the whole table.
func checkDistinct(refs []imageRef) error {
	order := make([]int32, len(refs))
	for i := range order {
		order[i] = int32(i)
	}
	byFragment := func(a, b int32) int {
		if c := pegasus.CompareFragments(refs[a].id, refs[b].id); c != 0 {
			return c
		}
		return int(a - b)
	}
	slices.SortFunc(order, byFragment)
	for k := 1; k < len(order); k++ {
		i, j := order[k-1], order[k]
		a, b := refs[i].id, refs[j].id
		switch {
		case a == b:
			return fmt.Errorf("webservice: rows %d and %d: galaxy id %q repeats: %w", i, j, a, vdl.ErrParse)
		case pegasus.CompareFragments(a, b) == 0:
			return fmt.Errorf("webservice: rows %d and %d: galaxy ids %q and %q name the same plan nodes: %w",
				i, j, a, b, vdl.ErrParse)
		}
	}
	return nil
}

// checkCluster admits a cluster name only if it can name the collector
// derivation: one VDL identifier, so also no path separator — a resumption
// joins the name into its artifact paths under JournalDir. It must not
// hold "__" either, the separator wfBase puts after a tenant. Both fresh
// requests and resumptions pass here; a refusal wraps vdl.ErrParse.
func checkCluster(cluster string) error {
	if !vdl.ValidName("collect-"+cluster) || strings.Contains(cluster, "__") {
		return fmt.Errorf("webservice: cluster %q cannot name a derivation and its artifacts: %w", cluster, vdl.ErrParse)
	}
	return nil
}

// checkTenant admits a tenant name made of [A-Za-z0-9.-] only: wfBase
// joins it into artifact basenames with "__", which must then read back
// one way. A refusal wraps vdl.ErrParse, as checkCluster's does.
func checkTenant(tenant string) error {
	for _, r := range tenant {
		if !('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || r == '.' || r == '-') {
			return fmt.Errorf("webservice: tenant %q may hold only letters, digits, '.' and '-': %w", tenant, vdl.ErrParse)
		}
	}
	return nil
}

// rowNames is every row's derivation name, file names and collector argument
// spelled into one string, so a request's per-galaxy names cost one
// allocation between them instead of four each. Row i is laid out as
// "m-<id>.fit<id>.txtp<i>": "m-<id>" and "<id>.fit" overlap.
type rowNames struct {
	s    string
	at   []int32 // row i starts at s[at[i]]; at[len(refs)] is len(s)
	refs []imageRef
}

func newRowNames(refs []imageRef) rowNames {
	size := 0
	for i, r := range refs {
		size += 2*len(r.id) + len("m-.fit.txtp") + digits(i)
	}
	b := make([]byte, 0, size)
	at := make([]int32, len(refs)+1)
	for i, r := range refs {
		at[i] = int32(len(b))
		b = append(b, "m-"...)
		b = append(b, r.id...)
		b = append(b, ".fit"...)
		b = append(b, r.id...)
		b = append(b, ".txtp"...)
		b = strconv.AppendInt(b, int64(i), 10)
	}
	at[len(refs)] = int32(len(b))
	return rowNames{s: string(b), at: at, refs: refs}
}

// digits is the length of i in decimal.
func digits(i int) int {
	n := 1
	for ; i >= 10; i /= 10 {
		n++
	}
	return n
}

// dv is row i's derivation name, "m-<id>".
func (n *rowNames) dv(i int) string { o := int(n.at[i]); return n.s[o : o+2+len(n.refs[i].id)] }

// image is row i's input file, "<id>.fit".
func (n *rowNames) image(i int) string { o := int(n.at[i]) + 2; return n.s[o : o+len(n.refs[i].id)+4] }

// result is row i's output file, "<id>.txt".
func (n *rowNames) result(i int) string {
	o := int(n.at[i]) + 6 + len(n.refs[i].id)
	return n.s[o : o+len(n.refs[i].id)+4]
}

// arg is the collector's formal for row i's result, "p<i>".
func (n *rowNames) arg(i int) string {
	return n.s[int(n.at[i])+10+2*len(n.refs[i].id) : n.at[i+1]]
}

// galMorphConstants are the actuals every galMorph derivation binds alike:
// the paper's parameter set, in the order the derivation file lists them.
var galMorphConstants = [...]vdl.Actual{
	{Name: "pixScale", Binding: vdl.ScalarBinding("2.831933107035062E-4")},
	{Name: "zeroPoint", Binding: vdl.ScalarBinding("27.8")},
	{Name: "Ho", Binding: vdl.ScalarBinding("100")},
	{Name: "om", Binding: vdl.ScalarBinding("0.3")},
	{Name: "flat", Binding: vdl.ScalarBinding("1")},
}

// layout is the request's virtual data in derivation-file order: its two
// transformations, then its derivations as two tables. The galMorph table
// holds one row per galaxy — the constants once, the redshift, image and
// result columns read from the request's own redshifts and names; the
// collector's one row binds its formals in order, row i's result file being
// both galMorph row i's output and the collector's i-th input.
func (d *derivations) layout() (trs [2]*vdl.Transformation, tables [2]*vdl.Table) {
	n := len(d.refs)
	names := newRowNames(d.refs)
	trs[0] = &vdl.Transformation{Name: "galMorph", Body: " compute CAS parameters ", Args: []vdl.Arg{
		{Name: "redshift", Dir: vdl.In}, {Name: "pixScale", Dir: vdl.In}, {Name: "zeroPoint", Dir: vdl.In},
		{Name: "Ho", Dir: vdl.In}, {Name: "om", Dir: vdl.In}, {Name: "flat", Dir: vdl.In},
		{Name: "image", Dir: vdl.In}, {Name: "galMorph", Dir: vdl.Out},
	}}
	columns := append([]vdl.Actual{
		{Name: "redshift", At: func(i int) string { return d.redshift[i] }},
		{Name: "image", Binding: vdl.FileBinding(vdl.In, ""), At: names.image},
	}, galMorphConstants[:]...)
	columns = append(columns, vdl.Actual{Name: "galMorph", Binding: vdl.FileBinding(vdl.Out, ""), At: names.result})
	tables[0] = &vdl.Table{TR: "galMorph", Rows: n, Name: names.dv, Columns: columns}

	trs[1] = &vdl.Transformation{Name: "concatVOT", Body: " concatenate per-galaxy results ", Args: make([]vdl.Arg, n+1)}
	collect := make([]vdl.Actual, n+1)
	for i := range d.refs {
		trs[1].Args[i] = vdl.Arg{Name: names.arg(i), Dir: vdl.In}
		collect[i] = vdl.Actual{Name: names.arg(i), Binding: vdl.FileBinding(vdl.In, names.result(i))}
	}
	trs[1].Args[n] = vdl.Arg{Name: "table", Dir: vdl.Out}
	collect[n] = vdl.Actual{Name: "table", Binding: vdl.FileBinding(vdl.Out, outputLFN(d.cluster))}
	collector := "collect-" + d.cluster
	tables[1] = &vdl.Table{TR: "concatVOT", Rows: 1, Name: func(int) string { return collector }, Columns: collect}
	return trs, tables
}

// catalog builds the request's virtual data catalog through the validators
// vdl.Parse ends in, so the catalog is the one parsing text would give: each
// table's signature is checked once per column, and a galMorph derivation
// binds no actuals of its own.
func (d *derivations) catalog() (*vdl.Catalog, error) {
	trs, tables := d.layout()
	cat := vdl.NewCatalogSized(len(d.refs) + 1)
	for _, tr := range trs {
		if err := cat.AddTransformation(tr); err != nil {
			return nil, err
		}
	}
	for _, t := range tables {
		if err := cat.AddTable(t); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// text renders the derivation file — the analog of the XSLT stylesheet's
// output, and the artifact a resumed leg parses.
func (d *derivations) text() string {
	trs, tables := d.layout()
	var b strings.Builder
	for _, tr := range trs {
		b.WriteString(vdl.FormatTransformation(tr) + "\n")
	}
	var row []vdl.Actual
	for _, t := range tables {
		for i := 0; i < t.Rows; i++ {
			b.WriteString("DV " + t.Name(i) + "->" + t.TR + "( ")
			row = t.Row(i, row[:0])
			for j, a := range row {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(a.Name + "=" + a.Binding.String())
			}
			b.WriteString(" );\n")
		}
	}
	return b.String()
}
